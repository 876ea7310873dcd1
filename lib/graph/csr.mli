(** Compact-sparse-row view of a {!Graph.t} — the routing hot path's
    representation.

    The adjacency of every node is a contiguous slice of two flat int
    arrays (neighbor ids and edge ids), delimited by an offsets array.
    Compared to chasing the per-node [Dynarray] structure, a scan of a
    node's successors touches three cache lines instead of following
    per-node pointers, and per-edge payloads (latency, bandwidth,
    residual capacity) live in caller-side float arrays indexed by edge
    id — exactly what A\*Prune's expansion loop and the latency-table
    Dijkstras need at cluster sizes in the thousands of hosts.

    The view is immutable and built once per graph. Arc order within a
    node's slice is exactly {!Graph.iter_adj} order (edge-insertion
    order), so an algorithm ported from the adjacency structure keeps
    its tie-breaking — and its output — byte-identical. Both arc
    directions of every edge are present. *)

type t

val of_graph : 'e Graph.t -> t
(** O(nodes + arcs). The labels are not captured: callers index
    label-derived arrays by edge id. *)

val n_nodes : t -> int

val n_arcs : t -> int
(** Total slice length: [2 * n_edges]. *)

val n_edges : t -> int
(** Edge-id count of the source graph (edge ids are [0 .. n_edges-1]). *)

(** {2 Flat arrays}

    Owned by the view: callers must not mutate. A node [u]'s successors
    sit at indices [offsets.(u) .. offsets.(u+1) - 1] of [neighbors]
    and [edge_ids]. *)

val offsets : t -> int array
(** Length [n_nodes + 1]; [offsets.(n_nodes) = n_arcs]. *)

val neighbors : t -> int array
val edge_ids : t -> int array

(** {2 Leaf-free view}

    The same layout with every arc whose neighbor has degree 1 left
    out: node [u]'s slice [leaf_free_offsets.(u) ..
    leaf_free_offsets.(u+1) - 1] of [leaf_free_neighbors] and
    [leaf_free_edge_ids] is its full slice minus the arcs to leaf
    neighbors, in the same order. A path search that cannot use a
    dead-end leaf skips a leaf switch's host arcs without reading
    them. Built with the view; when no node has a leaf neighbor the
    three arrays are the full ones. Owned by the view: callers must
    not mutate. *)

val leaf_free_offsets : t -> int array
val leaf_free_neighbors : t -> int array
val leaf_free_edge_ids : t -> int array

(** {2 Derived queries} *)

val degree : t -> int -> int
(** Slice width — equals {!Graph.degree} of the source graph. *)

val iter_adj : t -> int -> (neighbor:int -> eid:int -> unit) -> unit
(** Same visiting order as {!Graph.iter_adj} on the source graph. *)

val adj_list : t -> int -> (int * int) list
(** [(neighbor, eid)] pairs in slice order — for tests. *)

val sole_neighbor : t -> int -> (int * int) option
(** [(neighbor, eid)] when the node has exactly one incident arc —
    a leaf host hanging off its access switch. The latency-table
    landmark scheme keys on this. *)

val dijkstra_from : t -> weight:float array -> src:int -> float array
(** Single-source shortest-path distances with per-edge-id weights,
    identical results to [Dijkstra.run] on the source graph (same
    relaxation order). This is also the distance {e to} [src] from
    every node. Raises [Invalid_argument]
    on an out-of-range source, a negative weight, or a weight array
    shorter than {!n_edges}. *)
