(** Reusable routing context: the allocation-free engine state behind
    {!Astar_prune}.

    One context owns everything a search needs besides the problem
    itself — the label arena (a struct-of-arrays store with
    parent-pointer path reconstruction), the open-set heap of label
    ids and the per-node Pareto sets — so the ~150k [route] calls of
    one Networking pass share one steady allocation instead of
    rebuilding cons-lists, bitsets and Pareto arrays per call.

    {b Pareto sets.} Every entry of a node's Pareto set is a label
    already in the arena, so a set is a list of label ids: [phead.(v)]
    is the first, and [pnext.(id)] links each label to the next entry
    of its node's set ([-1] ends it). [phead.(v)] is valid only while
    [pstamp.(v)] equals the context's [search] counter, which
    {!reset_search} bumps, so one integer write empties every set, and
    no per-node state outlives the search that wrote it — whatever
    cluster, of whatever size, the next search runs on.

    {b Determinism.} A context changes nothing observable: routes
    returned through a shared context are the routes a fresh context
    returns, with the same statistics.

    A context must not be shared across domains. Fields are exposed
    for the engine's hot loop; treat everything except {!create} and
    {!fast_path_hits} as internal to [Hmn_routing]. *)

type t = {
  (* label arena (struct of arrays, -1 = none for parent/via/pnext) *)
  mutable parent : int array;
  mutable node : int array;
  mutable via : int array;
  mutable hops : int array;
  mutable width : float array;
  mutable lat : float array;
  mutable proj : float array;
  mutable pnext : int array;
  mutable n_labels : int;
  (* open set: binary min-heap of label ids *)
  mutable heap : int array;
  mutable heap_size : int;
  (* per-node Pareto set heads, valid where pstamp = search *)
  mutable phead : int array;
  mutable pstamp : int array;
  mutable search : int;
  mutable fast_path_hits : int;
}

val create : unit -> t

val fast_path_hits : t -> int
(** Routes resolved by the sole-neighbor tree fast path (feasible or
    proven infeasible) without a search; cumulative over the context's
    lifetime, whatever clusters it routed on. *)

(** {2 Engine internals} *)

val reset_search : t -> n_nodes:int -> unit
(** O(1) unless the node arrays must grow: empty the arena, the heap
    and every Pareto set by bumping [search], and grow
    [phead]/[pstamp] to at least [n_nodes], keeping all storage. *)

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
(** [pareto_dominated t v ~width ~lat]: does a label in [v]'s Pareto
    set have width at least [width] and latency at most [lat]?
    Early-exit walk of the set's list. *)

val pareto_record : t -> int -> unit
(** [pareto_record t id]: unlink from the Pareto set of label [id]'s
    node the labels [id] dominates, then link [id] in at the head. *)
