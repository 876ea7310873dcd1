(** The experiment driver: runs every heuristic on every scenario ×
    cluster, [reps] repetitions each, aggregating exactly what Tables
    2–3 report — mean objective value, failure counts, and the
    simulated experiment execution time — plus the pooled
    objective↔runtime correlation of §5.2.

    Each (scenario, cluster, repetition) triple deterministically
    derives one problem instance that all heuristics share, as in the
    paper ("each workload has been tested in both clusters").

    Instances are independent (each derives its own seed, problem and
    RNG streams), so the sweep fans them out across [jobs] worker
    domains. Every instance returns a pure record that the main domain
    merges in the canonical (scenario, cluster, rep) order, so
    [cells], [correlation] and every table rendered from them are
    identical whatever [jobs] is — only the mapping wall-clock
    measurements ([map_time]) vary between runs, as they always have.
    See "Parallel sweeps" in EXPERIMENTS.md. *)

type config = {
  reps : int;  (** repetitions per scenario (paper: 30) *)
  max_tries : int;  (** retry cap for R/RA/HS (paper: 100 000) *)
  base_seed : int;
  app : Hmn_emulation.App.t;
  simulate : bool;  (** run the emulated experiment on each success *)
  mappers : Hmn_core.Mapper.t list;
  verbose : bool;  (** progress lines on stderr *)
  jobs : int;  (** worker domains for the sweep; 1 = run in-process *)
  validate : bool;
      (** re-check every successful mapping with
          {!Hmn_validate.Validator} and abort the sweep (with the full
          violation report) on the first invalid one — the sweep's
          self-check, enabled by setting [HMN_VALIDATE] *)
  metrics : bool;
      (** enable the {!Hmn_obs.Metrics} registry for the sweep
          (counters/histograms from every stage, merged across worker
          domains); set by [HMN_METRICS]. Off by default so the hot
          paths pay only the inert-sink branch. *)
  trace : string option;
      (** when [Some path], record {!Hmn_obs.Trace} spans (every sweep
          instance, mapper run, stage and routed virtual link) and
          write the Chrome trace_event JSON there after the sweep; set
          by [HMN_TRACE=path]. *)
}

val env_int : string -> int -> int
(** [env_int name default]: the positive integer in environment
    variable [name], else [default]. *)

val default_config : unit -> config
(** Paper heuristics; [reps] from the [HMN_REPS] environment variable
    (default 5), [max_tries] from [HMN_MAX_TRIES] (default 200) — the
    defaults keep the full 16×2-cell sweep tractable on a laptop while
    [HMN_REPS=30 HMN_MAX_TRIES=100000] reproduces the paper's scale.
    [jobs] comes from [HMN_JOBS], defaulting to
    [Domain.recommended_domain_count () - 1] (floor 1); [validate] is
    true when [HMN_VALIDATE] is set (to anything); [metrics] when
    [HMN_METRICS] is set; [trace] from [HMN_TRACE].
    See EXPERIMENTS.md. *)

type cell = {
  successes : int;
  failures : int;
  objective : Hmn_stats.Running.t;  (** over successful runs *)
  map_time : Hmn_stats.Running.t;  (** mapping wall-clock, seconds *)
  makespan : Hmn_stats.Running.t;  (** simulated experiment time, seconds *)
  tries : Hmn_stats.Running.t;
}

type results = {
  config : config;
  scenarios : Scenario.t array;
  cells : (int * Scenario.cluster_kind * string, cell) Hashtbl.t;
      (** keyed by (scenario index, cluster, mapper name) *)
  correlation : Hmn_emulation.Correlate.t;
}

val run : ?config:config -> unit -> results

val cell :
  results -> scenario:int -> cluster:Scenario.cluster_kind -> mapper:string ->
  cell option

val mapper_names : results -> string list
(** In configuration order. *)
