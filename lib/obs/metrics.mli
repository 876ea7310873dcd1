(** Metrics registry: named counters, gauges, and {!Quantile}-backed
    histograms with O(1) updates, designed for the mapping hot paths.

    {b Sink model.} Metrics are globally disabled by default. While
    disabled, {!counter} / {!gauge} / {!histogram} hand out a shared
    inert handle whose update functions test one [live] flag and return
    — a hot loop pays a single predictable branch per update and no
    allocation, lookup, or locking. Enabling must happen before the
    instrumented code runs (the runner does it from [HMN_METRICS], the
    [profile] subcommand programmatically); handles created while
    disabled stay inert for their lifetime.

    {b Per-domain collectors.} Every domain that touches a metric lazily
    gets its own private collector (domain-local storage), so workers of
    [Hmn_prelude.Domain_pool] never contend on shared state.
    {!snapshot} merges all collectors ever created. Every merge
    operation is commutative and order-insensitive over exact values —
    integer sums for counters and histogram sums, maxima for gauges,
    {!Quantile.merge_into} for histogram buckets —
    so the merged aggregate is {e byte-identical} no matter how many
    domains the work was spread over.

    Thread-safety: a handle must only be updated by the domain that
    created it; {!snapshot} and {!reset} must be called while no other
    domain is updating (e.g. after [Domain_pool.wait]). *)

(** {2 Global switch} *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** {2 Handles} *)

type counter
type gauge
type histogram

val counter : string -> counter
(** The named counter of the calling domain's collector, created on
    first use. Returns the inert handle while disabled. *)

val gauge : string -> gauge

val histogram : string -> histogram
(** The named histogram of the calling domain's collector: a
    {!Quantile.t} plus an exact integer sum of the observations. *)

module Counter : sig
  val incr : counter -> unit
  val add : counter -> int -> unit
end

module Gauge : sig
  val observe : gauge -> int -> unit
  (** Records the value; the gauge keeps the last and the maximum
      observed. Merging keeps the maximum. *)
end

module Histogram : sig
  val observe : histogram -> int -> unit
  (** Records one value; negative values clamp to 0, as in
      {!Quantile.record}. Callers pick the unit (e.g. nanoseconds). *)
end

(** {2 Aggregation} *)

type histogram_snapshot = {
  quantile : Quantile.t;  (** merged over every domain; count via {!Quantile.count} *)
  sum : int;  (** exact sum of the observations *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauge_maxima : (string * int) list;  (** sorted by name *)
  histograms : (string * histogram_snapshot) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot
(** Deterministic merge of every collector of every domain. *)

val reset : unit -> unit
(** Zeroes every metric in every collector (names and handles stay
    valid). For tests and repeated [profile] runs. *)

val render : snapshot -> string
(** Sorted plain-text rendering, one metric per line — stable across
    domain counts, usable for byte-comparison in tests. A histogram
    line reads [histogram NAME n=.. p50=.. p90=.. p99=.. max=.. sum=..]. *)
