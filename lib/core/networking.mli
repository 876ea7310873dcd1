(** HMN stage 3 — Networking (paper §4.3).

    Maps each virtual link to a physical path with the modified
    1-constrained A\*Prune ({!Hmn_routing.Astar_prune}): paths are
    selected by greatest bottleneck bandwidth so that wide physical
    links are preserved for the links still to be mapped. Virtual links
    are processed in descending required-bandwidth order; links whose
    endpoints share a host are mapped to the trivial intra-host path
    (infinite bandwidth, zero latency) without touching the network.

    The stage — and any heuristic using it — fails on the first virtual
    link for which no feasible path exists under the current residual
    bandwidth. *)

type stats = {
  routed : int;  (** inter-host links actually routed *)
  intra_host : int;  (** links whose endpoints share a host *)
  expanded : int;  (** total A\*Prune expansions *)
  generated : int;  (** total A\*Prune queue pushes *)
  precompute_s : float;
      (** wall time of the eager latency-table fill (landmark
          Dijkstras) — kept out of the metrics registry, whose
          aggregates must stay deterministic across job counts *)
  fast_path : int;
      (** routes resolved by A\*Prune's sole-neighbor tree fast path,
          which contribute nothing to [expanded]/[generated] (0 with a
          custom [router]) *)
}

val run :
  ?router:
    (residual:Hmn_routing.Residual.t ->
    latency_tables:Hmn_routing.Latency_table.t ->
    src:int ->
    dst:int ->
    bandwidth_mbps:float ->
    latency_ms:float ->
    unit ->
    Hmn_routing.Path.t option) ->
  Hmn_mapping.Placement.t ->
  (Hmn_mapping.Link_map.t * stats, Mapper.failure) result
(** [router] defaults to A\*Prune; the Hosting-with-Search baseline
    passes a DFS router instead. Raises nothing; all failures are
    returned. The placement must be complete
    ([Hmn_mapping.Placement.all_assigned]). *)
