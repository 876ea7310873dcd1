(** Compact mutable graphs with integer nodes and labelled edges.

    Nodes are the integers [0 .. n_nodes - 1]; node payloads live in
    caller-side arrays indexed by node id. Edges carry a polymorphic
    label and are identified by a dense integer id in insertion order,
    which lets algorithms attach per-edge state in flat arrays.

    Graphs are undirected: each edge appears in both endpoints'
    adjacency, as the paper's links are shared capacities whichever way
    traffic runs. Parallel edges are permitted; self-loops are rejected
    because neither the physical cluster nor the virtual environment of
    the paper has them.

    {b Storage and adjacency order.} Edges live in flat arrays indexed
    by edge id (the two endpoints and the label). The adjacency is one
    compact-sparse-row structure over all nodes — offsets, neighbour
    ids and edge ids — built from the edge arrays on the first
    adjacency query ({!iter_adj}, {!fold_adj}, {!adj_list},
    {!degree}, {!find_edge}, {!adjacency_arrays}). A node's arcs are
    its incident edges in insertion (edge-id) order; every adjacency
    query, and {!Csr} slices, use that order. An {!add_edge} after a
    query drops the built adjacency, so the next query pays one
    O(nodes + edges) rebuild: build a graph's edges first, query it
    after.

    A graph that is queried from several domains must have its
    adjacency built first (any adjacency query does it), since the
    build writes the graph. [Hmn_testbed.Cluster.create] and
    [Hmn_vnet.Virtual_env.create] build it. *)

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
(** Structure-preserving relabelling (fresh graph, same node/edge ids).
    [f] is applied in edge-id order. The copy gets its own endpoint and
    label arrays and shares the source's adjacency, which is built
    first if it was not; an {!add_edge} to either graph afterwards
    leaves the other unchanged. *)

val adjacency_arrays : 'e t -> int array * int array * int array
(** [(offsets, neighbors, edge_ids)]: the built adjacency itself,
    neither copied nor frozen. Node [u]'s arcs sit at indices
    [offsets.(u) .. offsets.(u+1) - 1] of the other two arrays, in
    {!iter_adj} order; [offsets] has [n_nodes + 1] entries. The arrays
    stay valid, and unchanged, after a later {!add_edge} (which makes
    new ones): callers must not mutate them. {!Csr.of_graph} wraps
    them. *)
