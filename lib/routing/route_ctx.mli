(** Reusable routing context: the allocation-free engine state behind
    {!Astar_prune}.

    One context owns everything a search needs besides the problem
    itself — the label arena (a struct-of-arrays store with
    parent-pointer path reconstruction), the open-set heap of label
    ids and pooled per-node Pareto sets — so the ~150k [route] calls
    of one Networking pass share one steady allocation instead of
    rebuilding cons-lists, bitsets and Pareto arrays per call.

    {b Determinism.} A context changes nothing observable: routes
    returned through a shared context are the routes a fresh context
    returns, with the same statistics.

    {b Staleness.} The context is (re)bound to a cluster on every
    [route] call; rebinding to a {e different} cluster (pointer
    inequality of the CSR view — defragmentation rebuilds residual
    clusters) resizes the pools, so no per-node state survives an
    [Occupancy.replace].

    A context must not be shared across domains. Fields are exposed
    for the engine's hot loop; treat everything except {!create} and
    {!fast_path_hits} as internal to [Hmn_routing]. *)

type t = {
  mutable bound : Hmn_graph.Csr.t option;
  (* label arena (struct of arrays, -1 = none for parent/via) *)
  mutable parent : int array;
  mutable node : int array;
  mutable via : int array;
  mutable hops : int array;
  mutable width : float array;
  mutable lat : float array;
  mutable proj : float array;
  mutable n_labels : int;
  (* open set: binary min-heap of label ids *)
  mutable heap : int array;
  mutable heap_size : int;
  (* pooled per-node Pareto sets, flattened (width, lat) pairs *)
  mutable pareto : float Hmn_dstruct.Dynarray.t option array;
  touched : int Hmn_dstruct.Dynarray.t;
  mutable fast_path_hits : int;
}

val create : unit -> t

val fast_path_hits : t -> int
(** Routes resolved by the sole-neighbor tree fast path (feasible or
    proven infeasible) without a search; cumulative over the context's
    lifetime, rebinding does not reset it. *)

(** {2 Engine internals} *)

val bind : t -> Hmn_testbed.Cluster.t -> unit
(** Size the pools for [cluster]; drop them when the cluster's CSR view
    is not physically the one last bound. *)

val reset_search : t -> unit
(** O(touched nodes): empty the arena, the heap and the Pareto sets
    used by the previous search, keeping all storage. *)

val add_label :
  t ->
  parent:int ->
  node:int ->
  via:int ->
  hops:int ->
  width:float ->
  lat:float ->
  proj:float ->
  int
(** Append an arena row, growing the store geometrically; returns the
    new label id. *)

val on_path : t -> int -> int -> bool
(** [on_path t label v]: does [v] occur on the path the label's parent
    chain spells? O(hops) — the replacement for the per-label member
    bitset. *)

val heap_push : t -> int -> unit

val heap_pop : t -> int
(** The open set's minimum label id, or [-1] when empty. Ordering:
    widest bottleneck first, then smallest projected total latency,
    then fewest hops — identical decisions to the historical record
    comparator. *)

val pareto_dominated : t -> int -> width:float -> lat:float -> bool
(** Early-exit scan of node's recorded (width, lat) pairs. *)

val pareto_record : t -> int -> width:float -> lat:float -> unit
(** Drop recorded pairs the new one dominates (in-place compaction),
    then append it. *)
