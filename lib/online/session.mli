(** Per-run bookkeeping: event counts, peaks, and time-weighted means of
    the occupancy's quality signals, plus {!Hmn_obs.Metrics} handles.

    Determinism discipline: everything in {!summary} is derived from
    simulated time and simulated state only. Wall-clock quantities (the
    mapper's admission latency) go exclusively into the metrics
    histogram [online.admit_ns] and the flight recorder's wall-clock
    quantile channel, so a fixed seed yields a byte-identical rendered
    summary on any machine.

    When a {!Flight} recorder is attached, the session feeds it but
    never reads it back: the timeline samples the pre-mutation state at
    every tick (plus the empty cluster at t = 0), and each arrival's
    latency goes to the quantile channels — wall-clock nanoseconds and
    the deterministic work units. *)

type summary = {
  policy : string;
  seed : int;
  arrivals : int;
  admitted : int;
  rejected : int;
  departures : int;
  defrag_rounds : int;
  defrag_moves : int;
  horizon_s : float;  (** simulated span the means integrate over *)
  acceptance : float;  (** admitted / arrivals; 1 when no arrivals *)
  mean_tenants : float;  (** time-weighted mean resident tenants *)
  peak_tenants : int;
  mean_guests : float;
  peak_guests : int;
  mean_lbf : float;  (** time-weighted mean of Eq. 10 over the run *)
  final_lbf : float;
  mean_fragmentation : float;
  mean_mem_utilization : float;
  mean_bw_utilization : float;
}

type t

val create : ?flight:Flight.t -> policy:string -> seed:int -> Occupancy.t -> t

val tick : t -> now:float -> unit
(** Integrates the occupancy's {e current} readings over the interval
    since the previous tick. Call before the event at [now] mutates the
    occupancy (the state was constant on that interval). Raises
    [Invalid_argument] if simulated time goes backwards. *)

val observe_arrival :
  t -> admitted:bool -> admit_seconds:float -> work:int -> unit
(** Counts the arrival and its outcome. [admit_seconds] (wall-clock) is
    recorded only in the [online.admit_ns] histogram and the flight
    recorder's wall-clock quantile; [work]
    ({!Admission.work}, deterministic) feeds the pinnable quantile. *)

val observe_departure : t -> unit
val observe_defrag : t -> moves:int -> unit

val finalize : t -> now:float -> summary
(** Final tick up to [now], then the closed summary. *)

val render_summary : summary -> string
(** Fixed-format plain text — byte-stable for a given summary, used by
    the CLI smoke test's determinism diff. *)
