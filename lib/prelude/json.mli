(** Minimal self-contained JSON: value type, printer, recursive-descent
    parser, and lookup helpers. Used by the persistence layer
    ([hmn_io]) so problem instances and mappings can be saved and
    reloaded without external dependencies.

    Numbers are floats (standard JSON semantics); integers round-trip
    exactly up to 2^53. Strings support the standard escapes including
    [\uXXXX] (encoded back as UTF-8). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** [pretty] (default false) adds newlines and two-space indent. *)

val to_buffer : ?pretty:bool -> ?level:int -> Buffer.t -> t -> unit
(** [to_string], appended to a buffer. [level] (default 0) is the
    nesting depth the value is printed at: with [pretty], its inner
    lines are indented as if it were that deep in an enclosing
    document, so a writer can print one member of a larger document
    in place. *)

(** {2 Printer primitives}

    The pieces {!to_buffer} prints with, for writers that print a
    document straight from their own data with the same bytes as the
    tree they would otherwise build (see [Hmn_io.Codec.problem_to_text]). *)

val add_indent : Buffer.t -> int -> unit
(** [add_indent buf level]: a newline and [2 * level] spaces, what the
    pretty printer puts before each element, member and closing bracket
    at that depth. *)

val add_key : Buffer.t -> string -> unit
(** A member's key, escaped and quoted, and the pretty separator [": "]. *)

val add_string : Buffer.t -> string -> unit
(** A string value, escaped and quoted. *)

val add_number : Buffer.t -> float -> unit
(** [number_to_string x], appended; an integral value's digits go in
    without building a string. *)

val number_to_string : float -> string
(** How every number is printed: an integral value below 1e15 in
    magnitude as its digits (["%.0f"], so negative zero is ["-0"]),
    anything else as ["%.17g"], which [float_of_string] reads back to
    the same double. The one number format of the JSON printer, the
    artifact grammar and the journal.

    Implementation note: for finite 1e-6 <= |x| < 2^53 the ["%.17g"]
    digits are computed without libc. With e the decimal exponent of
    |x| and s = 16 - e <= 22, p = 10^s is an exact double,
    [hi = |x| *. p] and [lo = Float.fma |x| p (-. hi)] give
    |x| * 10^s = hi + lo exactly, and hi >= 10^16 is an integer, so
    rounding [lo] half-even yields the correctly rounded 17 digits; an
    exponent off by one shows as hi + lo outside [10^16, 10^17) and is
    corrected. The digits are laid out by C's [%g] rules. Every other
    input goes through the runtime's [caml_format_float], the only
    path for it. *)

val equal : t -> t -> bool
(** [equal a b] holds exactly when [to_string a = to_string b]: the
    same tree shape, keys and strings, and numbers that print alike
    (the same double, or two NaNs of the same sign; [0.] and [-0.]
    differ). Compares without printing. *)

val max_depth : int
(** Deepest nesting of arrays and objects {!of_string} accepts (512). *)

val of_string : string -> (t, string) result
(** Parses a complete JSON document; trailing garbage and nesting
    deeper than {!max_depth} are errors. The error message includes the
    offending position. *)

val of_string_raw :
  raw:string list -> string -> (t * (string * int * int) list, string) result
(** [of_string_raw ~raw text] parses [text] as {!of_string} does, except
    for the members of the top-level object whose key is in [raw]: each
    such value is read by the same parser code in a mode that builds
    nothing and checks each number token by its grammar ({!is_number}),
    left out of the tree, and returned as [(key, start, stop)], the
    value's bytes being [text.[start .. stop - 1]], in document order.
    The accepted documents, error messages and offsets are therefore
    {!of_string}'s. Reading a member this way allocates nothing per
    value: only a [\u] escape's four hex digits are copied, to be read
    as {!of_string} reads them. *)

val is_number : string -> bool
(** Whether [s] is a number token by the grammar the value-free mode
    checks: [[+-]? (d+ ('.' d* )? | '.' d+) ([eE] [+-]? d+)?], which is
    what [float_of_string] (C's [strtod]) accepts whole over the
    characters [0-9 + - . e E]. *)

(** {2 Construction helpers} *)

val int : int -> t
val float : float -> t
val str : string -> t
val list : ('a -> t) -> 'a list -> t

(** {2 Access helpers} — each returns [Error] with a path-aware message
    on shape mismatch. *)

val member : string -> t -> (t, string) result
val to_float : t -> (float, string) result
val to_int : t -> (int, string) result
(** Only an integral number in \[-2{^62}, 2{^62}), so it never wraps. *)

val to_str : t -> (string, string) result
val to_list : t -> (t list, string) result

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
(** Result bind, for decoder pipelines. *)
