(** Cluster-size scaling experiments: the paper's 40-host evaluation
    extended along a 40 → 400 → 4000 host axis.

    One size point = one deterministic instance: a rack-labelled
    fabric ({!shape}), [ratio] guests per host — drawn from the
    paper's workload for that ratio band (high-level up to 10:1,
    low-level beyond) with a size-independent ~1.5 virtual links per
    guest — mapped with the scale pipeline
    ({!Hmn_core.Hmn.run_sharded_detailed}: two-level Hosting, capped
    Migration, CSR + landmark-table Networking). The summary renderer
    is byte-deterministic for any [jobs] value; wall times are
    rendered separately so CI can diff summaries. *)

type shape =
  | Clos  (** leaf-spine; racks of 10 (40 at the 4000-host point) *)
  | Fat_tree  (** k-ary, k rounded up to cover the requested hosts *)

val shape_name : shape -> string

val uplink : Hmn_testbed.Link.t
(** Switch-to-switch tier: 10 Gbps / 5 ms (host cables stay at the
    paper's gigabit), keeping bisection bandwidth from collapsing as
    racks multiply. *)

val clos_geometry : hosts:int -> int * int * int
(** [(racks, hosts_per_rack, spines)] for a target host count. *)

val fat_tree_k : hosts:int -> int
(** Smallest even [k] with [k^3/4 >= hosts] — the built cluster may
    therefore round the host count up. *)

val cluster : shape:shape -> hosts:int -> rng:Hmn_rng.Rng.t -> Hmn_testbed.Cluster.t

val density : n_guests:int -> float
(** [3 / (n_guests - 1)]: ~1.5 virtual links per guest at every size. *)

val problem :
  shape:shape -> hosts:int -> ratio:int -> seed:int -> Hmn_mapping.Problem.t

type result = {
  shape : shape;
  n_hosts : int;  (** actual (after geometry rounding) *)
  n_racks : int;
  n_guests : int;
  n_vlinks : int;
  outcome : Hmn_core.Mapper.outcome;
  report : Hmn_core.Hmn.stage_report;
  valid : bool option;
      (** [Some] only when validation was requested and the mapping
          succeeded. *)
}

val run :
  ?jobs:int ->
  ?ratio:int ->
  ?seed:int ->
  ?validate:bool ->
  shape:shape ->
  hosts:int ->
  unit ->
  result
(** Defaults: [ratio = 25] (the paper's largest low-level ratio band),
    [seed = 42], [validate = false], [jobs] from
    {!Hmn_prelude.Domain_pool.default_jobs}. Migration is capped at
    [4 * hosts] moves. *)

val render_summary : result -> string
(** Byte-deterministic (no wall times) — safe to diff in CI. *)

val render_routing_counters : result -> string
(** One byte-deterministic line of Networking search-effort counters
    (labels expanded/generated, fast-path hits); empty when the mapping
    failed before Networking. CI pins this for a fixture to catch any
    drift in the engine's search order or pruning. *)

val render_timings : result -> string
(** Wall-clock per stage; print to stderr, never into diffed output. *)
