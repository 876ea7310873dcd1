(** The physical environment: a graph [c = (C, E_c)] of nodes and links
    (paper §3.2), where some nodes are hosts (can run guests) and some
    are switches (forwarding only). *)

type t

val create : nodes:Node.t array -> graph:Link.t Hmn_graph.Graph.t -> t
(** Raises [Invalid_argument] when the node array length differs from
    the graph's node count. Eagerly builds the graph's adjacency (so
    that domains may then read it), the CSR routing view over it and
    the flat per-edge latency/bandwidth arrays — O(nodes + links), paid
    once per cluster. *)

val graph : t -> Link.t Hmn_graph.Graph.t
val n_nodes : t -> int
val node : t -> int -> Node.t

val host_ids : t -> int array
(** Ids of the nodes that can run guests, ascending. The array is owned
    by the cluster: do not mutate. *)

val n_hosts : t -> int
val is_host : t -> int -> bool

val capacity : t -> int -> Resources.t
(** Usable capacity of a node (zero for switches). *)

val total_capacity : t -> Resources.t
(** Sum over hosts. *)

val link : t -> int -> Link.t
(** Label of a physical link by edge id. *)

(** {2 Routing hot-path views}

    All owned by the cluster: do not mutate. *)

val csr : t -> Hmn_graph.Csr.t
(** Compact-sparse-row view of {!graph}, same successor order as
    [Graph.iter_adj]. *)

val link_latencies : t -> float array
(** [latency_ms] per edge id — [Csr.dijkstra_from]'s weight array and
    A\*Prune's per-hop cost, without touching the boxed labels. *)

val link_bandwidths : t -> float array
(** [bandwidth_mbps] per edge id. *)

(** {2 Racks}

    Available when {e every} host node carries a {!Node.rack} label
    (fat-tree / Clos / switched builders); empty otherwise. Rack ids
    are densified to [0 .. n_racks - 1] in ascending label order. *)

val racks : t -> int array array
(** [racks t.(r)] is rack [r]'s host ids, ascending; [[||]] when the
    cluster is not (fully) rack-labelled. Owned by the cluster. *)

val n_racks : t -> int

val rack_of_node : t -> int -> int option
(** Dense rack id of a node ([None] for switches and unracked hosts). *)

val is_connected : t -> bool

val pp_summary : Format.formatter -> t -> unit
(** One-paragraph description: node/host/link counts, capacity totals. *)
