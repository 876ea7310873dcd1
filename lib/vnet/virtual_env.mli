(** The virtual environment [v = (V, E_v)] (paper §3.2): a set of guests
    and the virtual links between them. *)

type t

val create : guests:Guest.t array -> graph:Vlink.t Hmn_graph.Graph.t -> t
(** Raises [Invalid_argument] when the guest array length differs from
    the graph's node count. Virtual links are bidirectional demands in
    the paper's model, as {!Hmn_graph.Graph} edges are undirected.
    Builds the graph's adjacency, so that domains may then read it. *)

val graph : t -> Vlink.t Hmn_graph.Graph.t
val n_guests : t -> int
val n_vlinks : t -> int
val guest : t -> int -> Guest.t
val demand : t -> int -> Hmn_testbed.Resources.t
val vlink : t -> int -> Vlink.t
(** By edge id. *)

val endpoints : t -> int -> int * int
(** Guests joined by a virtual link. *)

val total_demand : t -> Hmn_testbed.Resources.t

val guest_degree_bandwidth : t -> int -> float
(** Sum of [vbw] over the virtual links incident to a guest; the
    Hosting stage's affinity weight. *)

val is_connected : t -> bool

val pp_summary : Format.formatter -> t -> unit
