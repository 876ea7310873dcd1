(** The artifact decompiler: re-parse an emitted bundle back into a
    structured deployment description, from the {e text alone}.

    This module shares only the grammar ({!Spec}) with {!Compile} —
    never in-memory state — so a successful round trip through
    [Compile → Decompile → Hmn_validate.Artifact_check] is evidence the
    artifacts themselves are faithful, not merely that the compiler
    agrees with itself.

    Parsing is deliberately lenient about {e semantic} fidelity: it
    recovers structure and numbers and leaves judgement (is every guest
    launched once? do the rates sum to the reservations?) to the
    checker, so that a tampered bundle decompiles and is then rejected
    with a precise violation class. Only structurally unreadable input
    is a decompile error. *)

type vm = {
  guest : int;
  name : string;
  host : int;
  mem_mb : float;
  stor_gb : float;
  cpu_mips : float;
  iface : string;
  bridge : string;
}

(** Every shaping class of the bundle, in emission order, one array per
    field (all the same length). *)
type classes = {
  minor : int array;  (** HTB class minor id *)
  vlink : int array;  (** joined back via the fw-filter handle *)
  rate_mbps : float array;
  ceil_mbps : float array;
      (** the class's HTB ceil; the rate where the line gives none (tc's
          default) and in the JSON grammar, which has no ceil *)
  delay_ms : float array;  (** the class's netem stage *)
}

type shaped_link = {
  edge : int;
  u : int;
  v : int;
  capacity_mbps : float;
  link_delay_ms : float;
  first_class : int;
  n_classes : int;
      (** the link's classes are entries [first_class] to
          [first_class + n_classes - 1] of {!t.classes}, in emission
          order *)
}

type bridge = {
  bridge_name : string;
  ports : string list;  (** in emission order *)
}

type scope = Full | Tenant of int

(** The embedded instance: bytes [start] to [start + len - 1] of the
    manifest text, which the parser checked but did not build or copy. *)
type embedded = {
  manifest : string;  (** the whole manifest text *)
  start : int;
  len : int;
}

type t = {
  artifact_format : Spec.format;
  schema_version : int;  (** as recorded in the manifest *)
  scope : scope;
  vmm_label : string;
  vms : vm list;  (** in emission order *)
  bridges : bridge list;
  links : shaped_link list;
  classes : classes;  (** every link's classes, link after link *)
  problem : embedded option;
      (** the value of the manifest's top-level ["problem"] (full scope) *)
  venv : embedded option;  (** the value of its ["venv"] (tenant scope) *)
  counts : (string * int) list;  (** manifest ["counts"] *)
  tolerance_mbps : float;
}

val run : files:(string * string) list -> (t, string) result
(** [run ~files] decompiles a bundle given as [(name, content)] pairs —
    exactly the shape {!Compile} emits and {!Compile.write} puts on
    disk. The manifest names the artifact format; the vms/net files are
    then parsed under the shell or JSON grammar of {!Spec}. Never
    raises: unreadable input is an [Error] that names the file and, in
    the shell grammar, the line (in the JSON grammar, the parser's byte
    offset). The shell files are scanned in place — lines and tokens
    are ranges of the text, a line is dispatched once on its first
    tokens, decimal integers are read without copying, and only kept
    values are copied. The manifest is parsed once, and its embedded
    instance only checked ({!Hmn_prelude.Json.of_string_raw}): it is
    returned as {!embedded}, a range of the manifest text, and reading
    it allocates nothing per value. *)
