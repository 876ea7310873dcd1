(** The artifact emission grammar: every name and id scheme shared by
    the compiler ({!Compile}) and the independent decompiler
    ({!Decompile}). Every rate, delay and resource number, in both the
    shell and the JSON grammar, is printed by
    [Hmn_prelude.Json.number_to_string] and read back exactly by
    [float_of_string].

    Centralizing the grammar here is what makes the round trip honest:
    the two sides share {e naming rules}, never rendered state. The
    decompiler consumes only the emitted text.

    {2 Naming}

    - host bridge: [br-h<node id>]; switch bridge: [br-s<node id>]
    - physical-link port (one per edge, same name on both endpoint
      bridges): [pe<edge id>]
    - guest attachment interface: [vif<guest id>.0]

    {2 Class ids}

    Each physical link that carries routed virtual links gets one HTB
    class plus one netem qdisc {e per} virtual link. Within a link the
    classes are ordered by ascending virtual-link id and numbered
    [minor_base + rank] — deterministic, so two exports of the same
    mapping are byte-identical and a duplicated or renumbered class is
    detectable without any side channel. The fw-mark filter handle is
    the virtual-link id itself, which is how the decompiler joins a
    class back to its virtual link. *)

type format = Shell | Json

val format_name : format -> string
(** ["shell"] / ["json"]. *)

val format_of_name : string -> (format, string) result

val schema_version : int
(** Version of the emission grammar, recorded in the manifest and
    checked by {!Decompile}. *)

(** The fixed text around the id in a name: a name is
    [prefix ^ string_of_int id ^ suffix]. *)
type affixes = { prefix : string; suffix : string }

val host_bridge_affixes : affixes
val switch_bridge_affixes : affixes
val port_affixes : affixes
val iface_affixes : affixes

val host_bridge : int -> string
val switch_bridge : int -> string
val port : int -> string
val iface : int -> string

val minor_base : int
(** First HTB class minor id (16 = tc's [0x10]). *)

val minor_of_rank : int -> int
(** [minor_base + rank], where [rank] is the class's position in the
    link's ascending-vlink-id order. *)

val manifest_file : string
val vms_file : format -> string
val net_file : format -> string
