(** The paper's modified 1-constrained A\*Prune (Algorithm 1).

    Finds, among the loop-free physical paths from [src] to [dst] that
    (a) keep accumulated latency within the virtual link's bound and
    (b) have at least the required residual bandwidth on every hop, a
    path with the {e greatest bottleneck bandwidth}. Inadmissible
    partial paths are pruned with the Dijkstra latency-to-go table
    [ar] (see {!Latency_table}).

    Note on fidelity: the paper's pseudocode prunes with
    [lat(d, h) + ar(h) <= latency], omitting the latency already
    accumulated along the partial path; taken literally that can emit
    paths violating Eq. (8). We include the accumulated term, so every
    returned path is feasible by construction (the stricter test also
    prunes earlier, never later).

    A Pareto-dominance cut is applied by default: a partial path
    reaching node [v] is dropped when another partial path already
    reached [v] with bottleneck at least as wide {e and} accumulated
    latency no larger. This preserves optimality of the returned
    bottleneck width and keeps the search polynomial in practice; it
    can be disabled for cross-checking.

    {b Tree fast path.} Before searching, [route] follows sole-neighbor
    chains from both endpoints (leaf hosts, pure tree segments, the
    same-rack host-switch-host triangle of a fabric). When the chains
    spell the whole route, the only simple path needs no search: it is
    returned if it passes the exact checks the search would apply to
    it, and otherwise no path exists. Such routes report [stats] of
    zero.

    {b Dead ends.} The search never generates a label at a node other
    than [dst] whose degree is 1: its only arc returns to the parent,
    so such a label could have no children. Leaf hosts of Clos and
    fat-tree fabrics are such nodes. *)

type stats = {
  expanded : int;  (** paths popped from the open set *)
  generated : int;  (** paths pushed to the open set *)
}

val route :
  ?prune_dominated:bool ->
  ?ctx:Route_ctx.t ->
  residual:Residual.t ->
  latency_tables:Latency_table.t ->
  src:int ->
  dst:int ->
  bandwidth_mbps:float ->
  latency_ms:float ->
  unit ->
  (Path.t * stats) option
(** [None] when no feasible path exists. [src = dst] returns the
    intra-host trivial path. Raises [Invalid_argument] on out-of-range
    endpoints, non-positive bandwidth, or negative latency bound.

    [ctx] is an optional reusable {!Route_ctx.t}: passing one lets
    consecutive calls share the label arena, heap and Pareto sets
    instead of allocating per call. Omitting it allocates a fresh
    context — same results, no reuse. On graphs with no degree-1
    node other than the endpoints, the engine returns the same path as
    the historical list-based implementation for every query, and for
    searched routes (those not taken by the fast path, see
    {!Route_ctx.fast_path_hits}) the same [stats]. Elsewhere it finds
    a route exactly when that implementation does, with the same
    (bottleneck width, latency, hop count) key, usually with far fewer
    labels; only ties among equal keys may resolve differently. *)

val widest_feasible :
  ?ctx:Route_ctx.t ->
  residual:Residual.t ->
  latency_tables:Latency_table.t ->
  src:int ->
  dst:int ->
  bandwidth_mbps:float ->
  latency_ms:float ->
  unit ->
  Path.t option
(** {!route} without the statistics. *)
