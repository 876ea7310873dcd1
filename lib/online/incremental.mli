(** Incremental operations on a live mapping.

    The paper's context is a fully-automated emulation testbed: once an
    environment is deployed, testers reconfigure it — a guest is moved,
    a hot spot is rebalanced — without tearing down every guest. These operations mutate a complete, valid mapping
    while preserving validity: every move re-routes the affected
    virtual links and rolls the whole operation back if any of them
    cannot be re-routed.

    A handle caches the Dijkstra latency tables across operations. *)

type t

val create : ?latency_tables:Hmn_routing.Latency_table.t -> Hmn_mapping.Mapping.t -> t
(** Wraps a mapping. The mapping must be complete and valid
    ({!Hmn_validate.Validator.check} reports no violation); raises
    [Invalid_argument] otherwise. The handle owns the mapping: mutating
    it elsewhere voids the guarantees.

    [latency_tables] shares a precomputed Dijkstra cache instead of
    building a fresh one; it must have been built on a cluster with the
    same graph structure and link latencies (bandwidths are free to
    differ — the tables only read latencies). The online service passes
    the full cluster's tables when it replays tenants onto residual
    clusters, whose latencies are identical by construction. *)

val mapping : t -> Hmn_mapping.Mapping.t

val move_guest : t -> guest:int -> host:int -> (unit, string) result
(** Migrates one guest and re-routes its inter-host virtual links with
    A\*Prune. On any failure (target does not fit, or some link cannot
    be re-routed) the mapping is restored exactly and an explanation
    returned. *)

val rebalance : ?max_moves:int -> t -> int
(** The Migration stage on a live mapping: repeatedly moves the
    cheapest-to-move guest off the most loaded host while the
    load-balance factor improves {e and} the move's links can be
    re-routed. Returns the number of moves (default cap: 4 × guests). *)
