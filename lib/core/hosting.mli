(** HMN stage 1 — Hosting (paper §4.1).

    Produces a first assignment of guests to hosts driven by network
    affinity: virtual links are processed in descending bandwidth
    order, and both endpoints of a link are put on the same host
    whenever they fit, so the highest-bandwidth virtual links tend to
    become intra-host (free) links. The host list is kept sorted by
    descending available CPU after every assignment, as in the paper:
    the one host an assignment changes moves to where a stable re-sort
    of the whole list would put it, ties keeping the list's previous
    order.

    Per the paper's rules, for each link [(vs, vd)]:
    - both endpoints already placed: skip;
    - neither placed: if the first endpoint fits on the first (most
      CPU-available) host and the second still fits there after it,
      place both there; otherwise place the more
      CPU-demanding guest on the first host that fits it and the other
      guest on the next host down the list that fits (wrapping around
      the list end — a robustness extension over the paper's
      formulation, which leaves "next" unspecified at the list end);
    - exactly one placed: co-locate the other on the same host if it
      fits, else on the first host in the list that fits.

    Guests untouched by any link (possible only in non-generated
    environments; the paper's generator guarantees connectivity) are
    placed last, each on the first host that fits.

    The pair test asks exactly what the two assignments will ask, one
    subtraction at a time, so no assignment the rules make can fail.
    The stage fails — and HMN with it — when some guest fits on no
    host. *)

val run : Hmn_mapping.Problem.t -> (Hmn_mapping.Placement.t, Mapper.failure) result

val run_sharded :
  ?jobs:int ->
  Hmn_mapping.Problem.t ->
  (Hmn_mapping.Placement.t, Mapper.failure) result
(** Two-level hosting for racked clusters (fat-tree, Clos, switched).
    Stage A, stage B and repair run the same pass as {!run}, over
    different bins: stage A at rack granularity (each rack one
    aggregate pseudo-host), stage B over each rack's hosts as an
    independent subproblem — fanned over a domain pool when [jobs > 1]
    (default {!Hmn_prelude.Domain_pool.default_jobs}) — and a serial
    repair pass over every host re-places the guests whose rack could
    not actually fit them. The merge is canonical (ascending rack, then
    guest id), so the resulting placement is byte-identical for every
    [jobs] value.
    Falls back to {!run} when the cluster has no rack structure
    ([Cluster.racks] empty or a single rack) or when rack packing
    fails in aggregate. Keeps the flat pass's affinity property within
    racks: high-bandwidth virtual links still co-locate. *)

val sorted_vlinks : Hmn_mapping.Problem.t -> int array
(** Virtual-link ids in descending [vbw] order (ties by id) — exposed
    because the Networking stage and tests use the same ordering. *)
