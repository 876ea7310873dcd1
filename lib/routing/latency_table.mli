(** Cached latency-to-destination tables with leaf landmarks.

    The paper's modified A\*Prune precomputes, for every node [c_i], the
    latency of the Dijkstra path from [c_i] to the link destination
    ([ar] in Algorithm 1). The Networking stage routes many virtual
    links toward a small set of hosts, so tables are cached per
    destination.

    {b Landmark scheme.} On hierarchical clusters (switched chain,
    fat-tree, Clos) every host is a {e leaf}: its only cable goes to an
    access switch [s] with latency [w], so [d(x, dst) = d(x, s) + w]
    for every [x <> dst] — exactly, not approximately. The cache
    therefore runs one Dijkstra per {e attachment switch} (the
    landmark) and represents each leaf's table as a shared base array
    plus a scalar offset: precompute drops from one Dijkstra (and one
    O(nodes) table) per host to one per rack, which is what makes
    4000-host precompute near-linear. Non-leaf destinations (torus
    hosts, switches) fall back to a plain per-destination Dijkstra on
    the cluster's CSR view. All the repo's cluster builders use one
    uniform per-tier latency, so the derived sums are exact dyadic
    floats and the tables are byte-identical to the direct Dijkstra
    answer; with arbitrary latencies they are still exact shortest
    distances up to one floating-point re-association. *)

type t

(** A destination's table: [base] is shared with every destination on
    the same landmark, so consult it only through {!get} (or the
    [offset]/[dst] fields, as the A\*Prune hot loop does). *)
type table = private {
  base : float array;  (** latency to the landmark (or to [dst] itself) *)
  offset : float;  (** leaf cable latency; [0.] for interior nodes *)
  dst : int;
}

val create : Hmn_testbed.Cluster.t -> t

val get : table -> int -> float
(** [get tab x] is the minimum accumulated physical latency from [x] to
    [tab.dst] ([infinity] when disconnected; [0.] at the destination). *)

val to_destination : t -> dst:int -> table
(** Cached per destination; counts one miss (and at most one Dijkstra)
    on first request. *)

val fill : table -> float array -> unit
(** [fill tab out] writes [get tab x] into [out.(x)] for every node,
    for oracles that sweep many destinations against one scratch
    buffer. Raises [Invalid_argument] when [out]'s length differs from
    the node count. *)

val precompute : t -> unit
(** Eagerly fill the table for every host destination (each counted as
    one miss). Routing only ever targets hosts, so after [precompute]
    the cache is read-only during routing — lookups allocate nothing
    and the table may be consulted from several domains at once without
    synchronisation. When metrics are enabled, records the Dijkstra
    count under [latency_table.dijkstras]; build wall time is kept out
    of the (deterministic) registry — read {!precompute_seconds}. *)

val hits : t -> int
val misses : t -> int

val dijkstras : t -> int
(** Dijkstra runs actually performed — [misses] minus the tables served
    by a landmark already computed. *)

val derived : t -> int
(** Tables answered via the leaf-landmark scheme (shared base +
    offset). *)

val precompute_seconds : t -> float
(** Cumulative wall time spent inside {!precompute} — reported by the
    CLI's profile output rather than the metrics registry, whose
    aggregates must stay deterministic across job counts. *)
