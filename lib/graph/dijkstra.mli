(** Single-source shortest paths with non-negative edge weights.

    Weights are supplied as a function of edge id, so one graph can be
    queried under several metrics (hop count, latency, inverse
    bandwidth) without relabelling. *)

type result = {
  dist : float array;  (** [dist.(v)]: cost of the best path, [infinity] if unreachable *)
  prev_node : int array;  (** predecessor on a best path, [-1] at source/unreachable *)
  prev_edge : int array;  (** edge id used to reach the node, [-1] likewise *)
}

val run : 'e Graph.t -> weight:(int -> float) -> src:int -> result
(** Raises [Invalid_argument] on an out-of-range source or if a negative
    weight is encountered. *)

val distances_to : 'e Graph.t -> weight:(int -> float) -> dst:int -> float array
(** [distances_to g ~weight ~dst] is the cost of the best path from
    every node {e to} [dst]: [run]'s [dist] from [dst], as edges are
    undirected. This is the "latency-to-go" table the paper's A\*Prune
    variant precomputes. *)

val path_to : result -> int -> (int list * int list) option
(** [path_to res v] reconstructs a best path to [v] as
    [(nodes, edge_ids)], nodes from source to [v]; [None] if
    unreachable. *)
