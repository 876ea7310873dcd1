(** Compact mutable graphs with integer nodes and labelled edges.

    Nodes are the integers [0 .. n_nodes - 1]; node payloads live in
    caller-side arrays indexed by node id. Edges carry a polymorphic
    label and are identified by a dense integer id in insertion order,
    which lets algorithms attach per-edge state in flat arrays.

    Graphs are undirected: each edge appears in both endpoints'
    adjacency, as the paper's links are shared capacities whichever way
    traffic runs. Parallel edges are permitted; self-loops are rejected
    because neither the physical cluster nor the virtual environment of
    the paper has them. *)

type 'e t

val create : n:int -> unit -> 'e t
(** [create ~n ()] is an edgeless graph on [n] nodes. Raises
    [Invalid_argument] if [n < 0]. *)

val n_nodes : 'e t -> int
val n_edges : 'e t -> int

val add_edge : 'e t -> int -> int -> 'e -> int
(** [add_edge g u v label] inserts an edge and returns its id. Raises
    [Invalid_argument] on out-of-range endpoints or [u = v]. *)

val endpoints : 'e t -> int -> int * int
(** [(u, v)] as given at insertion. Raises on a bad edge id. *)

val label : 'e t -> int -> 'e

val find_edge : 'e t -> int -> int -> int option
(** An edge id joining the two nodes if one exists. O(degree of [u]). *)

val degree : 'e t -> int -> int
(** Incident-edge count. *)

val iter_adj : 'e t -> int -> (neighbor:int -> eid:int -> unit) -> unit
(** Iterates every edge incident to a node, in insertion order. *)

val fold_adj : 'e t -> int -> init:'a -> f:('a -> neighbor:int -> eid:int -> 'a) -> 'a

val adj_list : 'e t -> int -> (int * int) list
(** [(neighbor, eid)] pairs of a node's adjacency. *)

val iter_edges : 'e t -> (eid:int -> u:int -> v:int -> 'e -> unit) -> unit

val fold_edges : 'e t -> init:'a -> f:('a -> eid:int -> u:int -> v:int -> 'e -> 'a) -> 'a

val map_labels : 'e t -> f:(eid:int -> 'e -> 'f) -> 'f t
(** Structure-preserving relabelling (fresh graph, same node/edge ids). *)
