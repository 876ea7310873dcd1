type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

(* Escaped runs are copied around the characters that need escaping, so
   a string with nothing to escape is added in one call. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      if i > !start then Buffer.add_substring buf s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      start := i + 1
    end
  done;
  if !start = 0 then Buffer.add_string buf s
  else if !start < n then Buffer.add_substring buf s !start (n - !start);
  Buffer.add_char buf '"'

(* The runtime primitive behind Printf's "%g" conversions (and
   Stdlib.string_of_float): the same bytes as Printf.sprintf "%.17g",
   without interpreting a format at every call. *)
external format_float : string -> float -> string = "caml_format_float"

(* Exact powers of ten: 10^s is a double for s <= 22. *)
let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

(* "%.17g" of [x], given [n], the 17 significant digits of |x| as an
   integer in [10^16, 10^17), and [e], the decimal exponent of the
   first one, -6 <= e < 17. Lays them out as C's %g does at precision
   17: fixed notation with 16 - e decimals when e >= -4, else
   d.ddde-0X; either way without trailing zeros or a bare point. *)
let layout_g ~neg n e =
  let m = ref n and k = ref 17 in
  while !m mod 10 = 0 do
    m := !m / 10;
    decr k
  done;
  let k = !k and sgn = Bool.to_int neg in
  (* the [k] digits left: digit i lands at [base + i], one further on
     past digit [dot], the one the point follows ([k]: none does) *)
  let base, dot, len =
    if e < -4 then (sgn, (if k > 1 then 0 else k), sgn + k + Bool.to_int (k > 1) + 4)
    else if e >= 0 then
      if k > e + 1 then (sgn, e, sgn + k + 1) else (sgn, k, sgn + e + 1)
    else (sgn + 1 - e, k, sgn + 1 - e + k)
  in
  let b = Bytes.make len '0' in
  if neg then Bytes.unsafe_set b 0 '-';
  if dot < k then Bytes.unsafe_set b (base + dot + 1) '.';
  if e < -4 then begin
    Bytes.blit_string "e-0" 0 b (len - 4) 3;
    Bytes.unsafe_set b (len - 1) (Char.unsafe_chr (48 - e))
  end
  else if e < 0 then Bytes.unsafe_set b (sgn + 1) '.';
  for i = k - 1 downto 0 do
    Bytes.unsafe_set b
      (if i > dot then base + i + 1 else base + i)
      (Char.unsafe_chr (48 + (!m mod 10)));
    m := !m / 10
  done;
  Bytes.unsafe_to_string b

(* "%.17g" of a finite [x] with [a] = |x| in [1e-6, 2^53), trying [e]
   as the decimal exponent of [a] (then one up or down, [tries] times).
   With s = 16 - e in [0, 22], p = 10^s is exact, [hi] = a * p rounded
   and [lo] = fma a p (-hi) is the product's exact error, so
   a * 10^s = hi + lo exactly. [e] is right when that value lies in
   [10^16, 10^17), which the comparisons decide exactly. Then
   hi >= 10^16 > 2^53 is an integer, and rounding [lo] half-even gives
   the 17 correctly rounded digits; a round up to 10^17 moves the
   exponent up one, as C's does. Anything outside this reach falls back
   to the libc call. *)
let rec fast_g x a e tries =
  let s = 16 - e in
  if s < 0 || s > 22 || tries = 0 then format_float "%.17g" x
  else
    let p = Array.unsafe_get pow10 s in
    let hi = a *. p in
    let lo = Float.fma a p (-.hi) in
    if hi < 1e16 || (hi = 1e16 && lo < 0.) then fast_g x a (e - 1) (tries - 1)
    else if hi > 1e17 || (hi = 1e17 && lo >= 0.) then fast_g x a (e + 1) (tries - 1)
    else
      let fl = Float.floor lo in
      let mid = fl +. 0.5 in
      let n = int_of_float hi + int_of_float fl in
      let n =
        if lo > mid then n + 1 else if lo < mid then n else n + (n land 1)
      in
      if n = 100_000_000_000_000_000 then
        layout_g ~neg:(x < 0.) 10_000_000_000_000_000 (e + 1)
      else layout_g ~neg:(x < 0.) n e

(* Integral values below 1e15 print as "%.0f" would: their digits, and
   "-0" for negative zero. Everything else is "%.17g", which is
   lossless for doubles ("nan"/"-nan" by sign, "inf", "-inf"): computed
   exactly by [fast_g] for magnitudes in [1e-6, 2^53), by libc for the
   rest. *)
let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then
    if x = 0. && Float.sign_bit x then "-0" else string_of_int (int_of_float x)
  else
    let a = Float.abs x in
    if a >= 1e-6 && a < 0x1p53 then
      fast_g x a (int_of_float (Float.floor (Float.log10 a))) 3
    else format_float "%.17g" x

(* A newline and the indent of the first 32 levels, added as one
   substring; deeper levels add the rest in further runs of spaces. *)
let newline_indent = "\n" ^ String.make 64 ' '

let add_indent buf level =
  let k = 2 * level in
  let first = min k (String.length newline_indent - 1) in
  Buffer.add_substring buf newline_indent 0 (1 + first);
  let rest = ref (k - first) in
  while !rest > 0 do
    let m = min !rest (String.length newline_indent - 1) in
    Buffer.add_substring buf newline_indent 1 m;
    rest := !rest - m
  done

let add_string = escape_string

let add_key buf k =
  escape_string buf k;
  Buffer.add_string buf ": "

(* The digits of [n] >= 0, added to [buf] without building a string. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* [number_to_string x], added to [buf]; an integral value's digits go
   in directly. *)
let add_number buf x =
  if Float.is_integer x && Float.abs x < 1e15 then
    if x < 0. || (x = 0. && Float.sign_bit x) then begin
      Buffer.add_char buf '-';
      add_digits buf (-int_of_float x)
    end
    else add_digits buf (int_of_float x)
  else Buffer.add_string buf (number_to_string x)

let to_buffer ?(pretty = false) ?(level = 0) buf t =
  let indent level = if pretty then add_indent buf level in
  let rec emit level = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num x -> add_number buf x
    | Str s -> escape_string buf s
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr (x :: xs) ->
      Buffer.add_char buf '[';
      indent (level + 1);
      emit (level + 1) x;
      items (level + 1) xs;
      indent level;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj (kv :: kvs) ->
      Buffer.add_char buf '{';
      field (level + 1) kv;
      fields (level + 1) kvs;
      indent level;
      Buffer.add_char buf '}'
  (* the elements after the first, each after a comma *)
  and items level = function
    | [] -> ()
    | x :: xs ->
      Buffer.add_char buf ',';
      indent level;
      emit level x;
      items level xs
  and field level (k, v) =
    indent level;
    if pretty then add_key buf k
    else begin
      escape_string buf k;
      Buffer.add_char buf ':'
    end;
    emit level v
  and fields level = function
    | [] -> ()
    | kv :: kvs ->
      Buffer.add_char buf ',';
      field level kv;
      fields level kvs
  in
  emit level t

let to_string ?pretty t =
  let buf = Buffer.create 256 in
  to_buffer ?pretty buf t;
  Buffer.contents buf

(* ---- equality ---- *)

(* Two numbers print alike exactly when they are the same double, or
   both NaN of the same sign: "%.17g" and the integer digits are
   injective on everything else, and 0. = -0. is told apart by sign. *)
let num_equal (a : float) b =
  if Float.is_nan a then Float.is_nan b && Float.sign_bit a = Float.sign_bit b
  else a = b && Float.sign_bit a = Float.sign_bit b

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Num x, Num y -> num_equal x y
  | Str x, Str y -> String.equal x y
  | Arr xs, Arr ys -> List.equal equal xs ys
  | Obj xs, Obj ys ->
    List.equal (fun (k, v) (k', v') -> String.equal k k' && equal v v') xs ys
  | (Null | Bool _ | Num _ | Str _ | Arr _ | Obj _), _ -> false

(* ---- parsing ---- *)

exception Parse_error of int * string

let max_depth = 512

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* The value of a number token [input.[start .. stop-1]]: an optional
   '-' and at most 15 digits is exact as an int, so it skips
   float_of_string; any other token goes through it. *)
let rec digits_value input acc i stop =
  if i = stop then acc
  else
    match String.unsafe_get input i with
    | '0' .. '9' as c -> digits_value input ((10 * acc) + Char.code c - 48) (i + 1) stop
    | _ -> -1

let number_of_token input start stop =
  let neg = input.[start] = '-' in
  let first = if neg then start + 1 else start in
  let v =
    if stop - first > 0 && stop - first <= 15 then digits_value input 0 first stop
    else -1
  in
  if v >= 0 then Some (if neg then -.float_of_int v else float_of_int v)
  else float_of_string_opt (String.sub input start (stop - start))

(* does [k] equal [s.[start ..]] from byte [i] of [k] on? *)
let rec same_sub k s start i =
  i = String.length k
  || String.unsafe_get k i = String.unsafe_get s (start + i) && same_sub k s start (i + 1)

let rec skip_digits s i stop =
  if i < stop && match String.unsafe_get s i with '0' .. '9' -> true | _ -> false
  then skip_digits s (i + 1) stop
  else i

let skip_sign s i stop =
  if i < stop && match String.unsafe_get s i with '+' | '-' -> true | _ -> false
  then i + 1
  else i

(* Does [s.[start .. stop-1]] spell a number as C's strtod reads one
   whole, the reader behind [float_of_string], on the characters a
   number token holds: [+-]? (d+ ('.' d* )? | '.' d+) ([eE] [+-]? d+)?.
   On those characters this accepts exactly the tokens [number_of_token]
   gives a value for (a property test compares it with
   [float_of_string_opt]); it only reads the bytes. *)
let number_token_ok s start stop =
  let i = skip_sign s start stop in
  let j = skip_digits s i stop in
  let point = j < stop && String.unsafe_get s j = '.' in
  let k = if point then skip_digits s (j + 1) stop else j in
  (* a digit before or after the point *)
  k - i > Bool.to_int point
  && (k = stop
     ||
     match String.unsafe_get s k with
     | 'e' | 'E' ->
       let e = skip_sign s (k + 1) stop in
       let f = skip_digits s e stop in
       f > e && f = stop
     | _ -> false)

let is_number s = number_token_ok s 0 (String.length s)

(* The parser behind [of_string] and [of_string_raw]. [parse_value
   ~build:false] reads a value with the same code as [~build:true], so
   with the same errors at the same offsets, but builds nothing: it
   returns [Null], copies no string, and checks a number token by its
   grammar instead of converting it. A member of the top-level object
   whose key is in [raw] is read that way and recorded as
   [(key, start, stop)] instead of joining the tree. *)
let parse ~raw input =
  let n = String.length input in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let at_end () = !pos >= n in
  let cur () = String.unsafe_get input !pos in
  let expect c =
    if at_end () then error (Printf.sprintf "expected '%c', found end of input" c)
    else if cur () = c then incr pos
    else error (Printf.sprintf "expected '%c', found '%c'" c (cur ()))
  in
  let skip_ws () =
    let i = ref !pos in
    while
      !i < n
      &&
      match String.unsafe_get input !i with
      | ' ' | '\t' | '\n' | '\r' -> true
      | _ -> false
    do
      incr i
    done;
    pos := !i
  in
  let literal word value =
    let len = String.length word in
    let rec matches i = i = len || (input.[!pos + i] = word.[i] && matches (i + 1)) in
    if !pos + len <= n && matches 0 then begin
      pos := !pos + len;
      value
    end
    else error ("invalid literal; expected " ^ word)
  in
  let parse_hex4 () =
    if !pos + 4 > n then error "truncated \\u escape";
    let s = String.sub input !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ s) with
    | Some v -> v
    | None -> error "invalid \\u escape"
  in
  let utf8_of_code buf code =
    (* Encode a Unicode scalar value as UTF-8. *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  (* After an escape, the rest of the string goes through [buf], or,
     when there is none, is only checked. *)
  let parse_escaped buf =
    let add c = match buf with Some b -> Buffer.add_char b c | None -> () in
    let rec go () =
      if at_end () then error "unterminated string"
      else
        match cur () with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if at_end () then error "unterminated escape";
          let c = cur () in
          incr pos;
          (match c with
          | '"' -> add '"'
          | '\\' -> add '\\'
          | '/' -> add '/'
          | 'n' -> add '\n'
          | 't' -> add '\t'
          | 'r' -> add '\r'
          | 'b' -> add '\b'
          | 'f' -> add '\012'
          | 'u' ->
            let code = parse_hex4 () in
            (* Surrogate pair handling. *)
            let code =
              if code >= 0xD800 && code <= 0xDBFF then begin
                if !pos + 1 < n && input.[!pos] = '\\' && input.[!pos + 1] = 'u' then begin
                  pos := !pos + 2;
                  let low = parse_hex4 () in
                  if low >= 0xDC00 && low <= 0xDFFF then
                    0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                  else error "invalid low surrogate"
                end
                else error "lone high surrogate"
              end
              else code
            in
            Option.iter (fun b -> utf8_of_code b code) buf
          | c -> error (Printf.sprintf "invalid escape '\\%c'" c));
          go ()
        | c ->
          incr pos;
          add c;
          go ()
    in
    go ();
    match buf with Some b -> Buffer.contents b | None -> ""
  in
  (* Object keys repeat: the last key read with a given length and end
     bytes is kept, and a key equal to it is shared rather than copied
     again. *)
  let keys = Array.make 256 "" in
  let key_of start stop =
    let len = stop - start in
    if len = 0 then ""
    else
      let slot =
        ((len * 31) + (Char.code (String.unsafe_get input start) * 7)
        + Char.code (String.unsafe_get input (stop - 1)))
        land 255
      in
      let k = Array.unsafe_get keys slot in
      if String.length k = len && same_sub k input start 0 then k
      else begin
        let k = String.sub input start len in
        Array.unsafe_set keys slot k;
        k
      end
  in
  (* A string with no escape is one substring of the input. *)
  let parse_string ~key ~build =
    expect '"';
    let start = !pos in
    let i = ref start in
    while
      !i < n && match String.unsafe_get input !i with '"' | '\\' -> false | _ -> true
    do
      incr i
    done;
    pos := !i;
    if at_end () then error "unterminated string"
    else if cur () = '"' then begin
      incr pos;
      if not build then ""
      else if key then key_of start (!pos - 1)
      else String.sub input start (!pos - 1 - start)
    end
    else if build then begin
      let buf = Buffer.create (2 * (!pos - start) + 16) in
      Buffer.add_substring buf input start (!pos - start);
      parse_escaped (Some buf)
    end
    else parse_escaped None
  in
  let invalid_number start =
    error ("invalid number: " ^ String.sub input start (!pos - start))
  in
  let parse_number ~build =
    let start = !pos in
    while !pos < n && is_num_char (cur ()) do
      incr pos
    done;
    if build then
      match number_of_token input start !pos with
      | Some x -> Num x
      | None -> invalid_number start
    else if number_token_ok input start !pos then Null
    else invalid_number start
  in
  let raws = ref [] in
  (* The loops over members and elements are siblings of [parse_value],
     not local to it, so that reading a value allocates no closure. *)
  let rec parse_value ~build depth =
    skip_ws ();
    if at_end () then error "unexpected end of input";
    match cur () with
    | ('{' | '[') when depth = max_depth ->
      error (Printf.sprintf "nesting deeper than %d" max_depth)
    | '{' ->
      incr pos;
      skip_ws ();
      if !pos < n && cur () = '}' then begin
        incr pos;
        if build then Obj [] else Null
      end
      else fields ~build depth []
    | '[' ->
      incr pos;
      skip_ws ();
      if !pos < n && cur () = ']' then begin
        incr pos;
        if build then Arr [] else Null
      end
      else items ~build depth []
    | '"' ->
      let s = parse_string ~key:false ~build in
      if build then Str s else Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ~build
    | c -> error (Printf.sprintf "unexpected character '%c'" c)
  (* the members of an object at [depth], from the next key on *)
  and fields ~build depth acc =
    skip_ws ();
    let key = parse_string ~key:true ~build in
    skip_ws ();
    expect ':';
    if depth = 0 && raw <> [] && List.mem key raw then begin
      skip_ws ();
      let start = !pos in
      ignore (parse_value ~build:false (depth + 1));
      raws := (key, start, !pos) :: !raws;
      next_field ~build depth acc
    end
    else
      let value = parse_value ~build (depth + 1) in
      next_field ~build depth (if build then (key, value) :: acc else acc)
  and next_field ~build depth acc =
    skip_ws ();
    if at_end () then error "expected ',' or '}' in object"
    else
      match cur () with
      | ',' ->
        incr pos;
        fields ~build depth acc
      | '}' ->
        incr pos;
        if build then Obj (List.rev acc) else Null
      | _ -> error "expected ',' or '}' in object"
  (* the elements of an array at [depth], from the next one on *)
  and items ~build depth acc =
    let value = parse_value ~build (depth + 1) in
    let acc = if build then value :: acc else acc in
    skip_ws ();
    if at_end () then error "expected ',' or ']' in array"
    else
      match cur () with
      | ',' ->
        incr pos;
        items ~build depth acc
      | ']' ->
        incr pos;
        if build then Arr (List.rev acc) else Null
      | _ -> error "expected ',' or ']' in array"
  in
  match
    let v = parse_value ~build:true 0 in
    skip_ws ();
    if !pos <> n then error "trailing garbage after document";
    v
  with
  | v -> Ok (v, List.rev !raws)
  | exception Parse_error (p, msg) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)

let of_string input = Result.map fst (parse ~raw:[] input)
let of_string_raw ~raw input = parse ~raw input

(* ---- helpers ---- *)

let int i = Num (float_of_int i)
let float x = Num x
let str s = Str s
let list f xs = Arr (List.map f xs)

let member key = function
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" key))
  | _ -> Error (Printf.sprintf "expected an object while looking up %S" key)

let to_float = function
  | Num x -> Ok x
  | _ -> Error "expected a number"

let to_int = function
  | Num x when Float.is_integer x && x >= -0x1p62 && x < 0x1p62 ->
    Ok (int_of_float x)
  | Num x when Float.is_integer x -> Error "integer out of range"
  | Num _ -> Error "expected an integer"
  | _ -> Error "expected a number"

let to_str = function
  | Str s -> Ok s
  | _ -> Error "expected a string"

let to_list = function
  | Arr xs -> Ok xs
  | _ -> Error "expected an array"

let ( let* ) = Result.bind
