(** Prometheus text-format exposition for a {!Metrics.snapshot}.

    Renders the standard families: counters as [<name>_total], gauge
    maxima as gauges, histograms as summaries — quantiles 0.5, 0.9,
    0.99 and 0.999 from the merged {!Quantile}, plus [_sum] (the exact
    integer sum, printed in full) and [_count]. Metric names
    are sanitized to the Prometheus charset — every character outside
    [[a-zA-Z0-9_:]] becomes ['_'] — and prefixed with the namespace.

    Output is deterministic: the snapshot's name ordering is preserved
    and all numbers print through fixed formats, so the same merged
    snapshot renders byte-identically at any [HMN_JOBS]. *)

val metric_name : ?namespace:string -> string -> string
(** Sanitized, namespaced metric name. [namespace] defaults to
    ["hmn"]; pass [""] for none. *)

val render : ?namespace:string -> Metrics.snapshot -> string
(** The full exposition document: [# TYPE] comments and sample lines,
    one family per metric, terminated by a newline. *)
