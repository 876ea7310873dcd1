(* Tests for hmn_obs: registry semantics (counters, gauges, Quantile-
   backed histograms), the disabled-sink no-op contract, the monotonic clock,
   the tracer's Chrome JSON output, and the cross-cutting determinism
   guarantee — a metrics-enabled sweep yields byte-identical aggregates
   at jobs=1 and jobs=4.

   Metrics and Trace are global, so every test starts by forcing the
   switch into the state it needs and resetting; names are kept unique
   per test so leftovers from earlier tests cannot alias. *)

module Metrics = Hmn_obs.Metrics
module Trace = Hmn_obs.Trace
module Clock = Hmn_prelude.Clock
module Json = Hmn_prelude.Json
module Runner = Hmn_experiments.Runner
module Quantile = Hmn_obs.Quantile

let find_counter snap name =
  match List.assoc_opt name snap.Metrics.counters with
  | Some n -> n
  | None -> Alcotest.failf "counter %s not in snapshot" name

(* ---- registry semantics ---- *)

let test_counter_semantics () =
  Metrics.enable ();
  Metrics.reset ();
  let c = Metrics.counter "t.counter" in
  Metrics.Counter.incr c;
  Metrics.Counter.incr c;
  Metrics.Counter.add c 40;
  (* repeated lookup returns the same underlying cell *)
  Metrics.Counter.incr (Metrics.counter "t.counter");
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "counter total" 43 (find_counter snap "t.counter");
  Metrics.reset ();
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "reset zeroes" 0 (find_counter snap "t.counter");
  (* the handle stays valid across reset *)
  Metrics.Counter.incr c;
  Alcotest.(check int) "handle survives reset" 1
    (find_counter (Metrics.snapshot ()) "t.counter")

let test_gauge_keeps_maximum () =
  Metrics.enable ();
  Metrics.reset ();
  let g = Metrics.gauge "t.gauge" in
  Metrics.Gauge.observe g 3;
  Metrics.Gauge.observe g 11;
  Metrics.Gauge.observe g 7;
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "max observed" 11
    (List.assoc "t.gauge" snap.Metrics.gauge_maxima)

let test_histogram_quantiles () =
  Metrics.enable ();
  Metrics.reset ();
  let h = Metrics.histogram "t.hist" in
  List.iter (Metrics.Histogram.observe h) [ 3; 1; 4; 1; 5; 9; 2; 6 ];
  (* a second lookup reaches the same cell *)
  Metrics.Histogram.observe (Metrics.histogram "t.hist") 5;
  let snap = Metrics.snapshot () in
  let hs = List.assoc "t.hist" snap.Metrics.histograms in
  (* values below 2^7 are exact in the default Quantile layout *)
  Alcotest.(check int) "count" 9 (Quantile.count hs.Metrics.quantile);
  Alcotest.(check int) "p50" 4 (Quantile.quantile hs.Metrics.quantile 0.5);
  Alcotest.(check int) "max" 9 (Quantile.max_value hs.Metrics.quantile);
  Alcotest.(check int) "exact sum" 36 hs.Metrics.sum;
  Alcotest.(check bool) "rendered on one line" true
    (String.equal
       (Metrics.render { snap with Metrics.counters = []; gauge_maxima = [] })
       "histogram t.hist n=9 p50=4 p90=9 p99=9 max=9 sum=36\n");
  Metrics.reset ();
  let hs = List.assoc "t.hist" (Metrics.snapshot ()).Metrics.histograms in
  Alcotest.(check int) "reset empties" 0 (Quantile.count hs.Metrics.quantile)

let test_render_stable () =
  Metrics.enable ();
  Metrics.reset ();
  Metrics.Counter.incr (Metrics.counter "t.render.b");
  Metrics.Counter.add (Metrics.counter "t.render.a") 2;
  let r = Metrics.render (Metrics.snapshot ()) in
  let idx needle =
    let n = String.length needle in
    let rec find i =
      if i + n > String.length r then Alcotest.failf "%S not rendered" needle
      else if String.sub r i n = needle then i
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check bool) "sorted by name" true (idx "t.render.a" < idx "t.render.b");
  Alcotest.(check bool) "value rendered" true (idx "t.render.a 2" >= 0)

(* ---- disabled sink ---- *)

let test_disabled_is_inert () =
  Metrics.enable ();
  Metrics.reset ();
  Metrics.disable ();
  (* handles created while disabled are inert: no registration, no
     counting — even if metrics are enabled later. *)
  let c = Metrics.counter "t.inert" in
  Metrics.Counter.incr c;
  Metrics.Gauge.observe (Metrics.gauge "t.inert.g") 5;
  Metrics.Histogram.observe (Metrics.histogram "t.inert.h") 1;
  Metrics.enable ();
  Metrics.Counter.add c 100;
  let snap = Metrics.snapshot () in
  Alcotest.(check (option int)) "no counter registered" None
    (List.assoc_opt "t.inert" snap.Metrics.counters);
  Alcotest.(check (option int)) "no gauge registered" None
    (List.assoc_opt "t.inert.g" snap.Metrics.gauge_maxima);
  Alcotest.(check bool) "no histogram registered" true
    (List.assoc_opt "t.inert.h" snap.Metrics.histograms = None)

(* ---- monotonic clock ---- *)

let test_clock_monotonic () =
  let t0 = Clock.now_s () in
  (* burn a little time so the difference is strictly observable on any
     reasonable clock resolution *)
  let acc = ref 0. in
  for i = 1 to 10_000 do
    acc := !acc +. float_of_int i
  done;
  ignore (Sys.opaque_identity !acc);
  let t1 = Clock.now_s () in
  Alcotest.(check bool) "time advances" true (t1 >= t0);
  Alcotest.(check bool) "elapsed non-negative" true (Clock.elapsed_s t0 >= 0.);
  let x, dt = Clock.time (fun () -> 42) in
  Alcotest.(check int) "time returns value" 42 x;
  Alcotest.(check bool) "measured duration non-negative" true (dt >= 0.)

(* ---- tracer ---- *)

let test_trace_spans_and_json () =
  Trace.enable ();
  Trace.clear ();
  let r =
    Trace.with_span ~cat:"test" ~args:[ ("k", "v") ] "outer" (fun () ->
        Trace.with_span "inner" (fun () -> 7))
  in
  Alcotest.(check int) "body result" 7 r;
  Alcotest.(check int) "two spans buffered" 2 (Trace.span_count ());
  let path = Filename.temp_file "hmn_trace" ".json" in
  Trace.write ~path;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  (match Json.of_string text with
  | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  | Ok doc ->
    let open Json in
    let events =
      match
        let* evs = member "traceEvents" doc in
        to_list evs
      with
      | Ok evs -> evs
      | Error e -> Alcotest.failf "traceEvents: %s" e
    in
    Alcotest.(check int) "two events" 2 (List.length events);
    List.iter
      (fun ev ->
        let str_field f =
          match
            let* v = member f ev in
            to_str v
          with
          | Ok s -> s
          | Error e -> Alcotest.failf "field %s: %s" f e
        in
        Alcotest.(check string) "complete event" "X" (str_field "ph");
        let num_field f =
          match
            let* v = member f ev in
            to_float v
          with
          | Ok n -> n
          | Error e -> Alcotest.failf "field %s: %s" f e
        in
        Alcotest.(check bool) "ts non-negative" true (num_field "ts" >= 0.);
        Alcotest.(check bool) "dur non-negative" true (num_field "dur" >= 0.))
      events);
  Trace.disable ();
  Trace.clear ()

let test_trace_disabled_records_nothing () =
  Trace.disable ();
  Trace.clear ();
  let r = Trace.with_span "ghost" (fun () -> 3) in
  Alcotest.(check int) "body still runs" 3 r;
  Alcotest.(check int) "nothing buffered" 0 (Trace.span_count ())

(* ---- cross-domain determinism ---- *)

(* The observability contract mirrors the sweep's: aggregates must not
   depend on how the work was spread over domains. Run the same tiny
   metrics-enabled sweep at jobs=1 and jobs=4 and byte-compare the
   rendered registry. *)
let test_metrics_jobs_determinism () =
  let config jobs =
    {
      Runner.reps = 1;
      max_tries = 5;
      base_seed = 777;
      app = Hmn_emulation.App.default;
      simulate = false;
      mappers =
        List.filter
          (fun m -> List.mem m.Hmn_core.Mapper.name [ "HMN"; "R" ])
          (Hmn_core.Registry.paper ~max_tries:5 ());
      verbose = false;
      jobs;
      validate = false;
      metrics = true;
      trace = None;
    }
  in
  let rendered jobs =
    Metrics.enable ();
    Metrics.reset ();
    ignore (Runner.run ~config:(config jobs) ());
    Metrics.render (Metrics.snapshot ())
  in
  let seq = rendered 1 in
  let par = rendered 4 in
  Metrics.disable ();
  Alcotest.(check bool) "counters were recorded" true
    (String.length seq > 0 && String.contains seq '\n');
  (* the retrying baseline R records one histogram observation per run,
     so byte-identity below covers merged histograms too *)
  Alcotest.(check bool) "histogram rendered" true
    (List.exists
       (fun line -> String.starts_with ~prefix:"histogram baseline.tries_per_run n=" line)
       (String.split_on_char '\n' seq));
  Alcotest.(check string) "aggregates identical across jobs" seq par

(* ---- quantile histograms ---- *)

let test_quantile_exact_below_precision () =
  (* values below 2^p land in unit-width buckets: every quantile of a
     small-value multiset is exact *)
  let q = Quantile.create () in
  List.iter (Quantile.record q) [ 5; 1; 9; 5; 3 ];
  Alcotest.(check int) "count" 5 (Quantile.count q);
  Alcotest.(check int) "p0 = min" 1 (Quantile.quantile q 0.);
  Alcotest.(check int) "median" 5 (Quantile.quantile q 0.5);
  Alcotest.(check int) "max" 9 (Quantile.max_value q);
  Alcotest.(check int) "negative clamps to 0" 0
    (let q' = Quantile.create () in
     Quantile.record q' (-3);
     Quantile.quantile q' 1.)

let test_quantile_relative_error () =
  (* a single large value: the reported quantile over-estimates by at
     most the bucket's relative width 2^-(p-1) *)
  let p = 7 in
  let q = Quantile.create ~precision:p () in
  let bound = 1. /. float_of_int (1 lsl (p - 1)) in
  List.iter
    (fun v ->
      let q' = Quantile.copy q in
      Quantile.record q' v;
      let est = Quantile.quantile q' 0.5 in
      Alcotest.(check bool)
        (Printf.sprintf "estimate %d covers %d" est v)
        true (est >= v);
      Alcotest.(check bool)
        (Printf.sprintf "estimate %d within %g of %d" est bound v)
        true
        (float_of_int (est - v) <= bound *. float_of_int v))
    [ 1; 127; 128; 129; 1000; 123_456; 987_654_321; max_int / 2 ]

let prop_quantile_monotone_in_q =
  QCheck.Test.make ~name:"quantile is monotone in q" ~count:200
    QCheck.(pair small_nat (list small_nat))
    (fun (seed, values) ->
      let q = Quantile.create () in
      (* mix small and large magnitudes deterministically off the seed *)
      List.iteri
        (fun i v ->
          Quantile.record q (v * ((i + seed) mod 5 |> fun k -> 1 lsl (4 * k))))
        values;
      let qs = [ 0.; 0.1; 0.25; 0.5; 0.9; 0.99; 0.999; 1. ] in
      let vals = List.map (Quantile.quantile q) qs in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vals)

let prop_quantile_merge_exact =
  QCheck.Test.make
    ~name:"partitioned recordings merge to byte-identical quantiles"
    ~count:200
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (xs, ys) ->
      let one = Quantile.create () in
      List.iter (Quantile.record one) (xs @ ys);
      let a = Quantile.create () and b = Quantile.create () in
      List.iter (Quantile.record a) xs;
      List.iter (Quantile.record b) ys;
      (* merge in the "wrong" order too: must not matter *)
      let merged = Quantile.create () in
      Quantile.merge_into ~into:merged b;
      Quantile.merge_into ~into:merged a;
      List.for_all
        (fun p -> Quantile.quantile merged p = Quantile.quantile one p)
        [ 0.; 0.5; 0.9; 0.99; 1. ]
      && Quantile.count merged = Quantile.count one)

let test_quantile_merge_guards () =
  let a = Quantile.create ~precision:7 () in
  let b = Quantile.create ~precision:8 () in
  Alcotest.check_raises "precision mismatch"
    (Invalid_argument "Quantile.merge_into: precision mismatch (7 vs 8)")
    (fun () -> Quantile.merge_into ~into:a b)

(* ---- time series ---- *)

module Timeseries = Hmn_obs.Timeseries

let test_timeseries_ring () =
  let ts = Timeseries.create ~capacity:4 ~columns:[ "a"; "b" ] () in
  for i = 0 to 5 do
    Timeseries.sample ts ~t_s:(float_of_int i) [| float_of_int i; 0.5 |]
  done;
  Alcotest.(check int) "retained" 4 (Timeseries.length ts);
  Alcotest.(check int) "total" 6 (Timeseries.total ts);
  Alcotest.(check int) "dropped" 2 (Timeseries.dropped ts);
  let stamps = ref [] in
  Timeseries.iter ts (fun ~t_s _ -> stamps := t_s :: !stamps);
  Alcotest.(check (list (float 0.))) "oldest first, window = last 4"
    [ 2.; 3.; 4.; 5. ] (List.rev !stamps);
  let csv = Timeseries.to_csv ts in
  Alcotest.(check bool) "header" true
    (String.length csv > 8 && String.sub csv 0 8 = "t_s,a,b\n");
  (* rows are copied on sample: mutating the caller's array later must
     not corrupt the series *)
  let row = [| 7.; 7. |] in
  Timeseries.sample ts ~t_s:6. row;
  row.(0) <- 999.;
  let last = ref [||] in
  Timeseries.iter ts (fun ~t_s:_ r -> last := Array.copy r);
  Alcotest.(check (float 0.)) "copied row" 7. !last.(0)

(* ---- exposition ---- *)

module Expose = Hmn_obs.Expose

let test_expose_render () =
  Metrics.enable ();
  Metrics.reset ();
  Metrics.Counter.add (Metrics.counter "t.expose/ops") 3;
  Metrics.Gauge.observe (Metrics.gauge "t.expose.depth") 12;
  let h = Metrics.histogram "t.expose.lat" in
  List.iter (Metrics.Histogram.observe h) [ 1; 2; 20 ];
  let text = Expose.render ~namespace:"tt" (Metrics.snapshot ()) in
  Metrics.disable ();
  let has needle =
    let n = String.length needle in
    let rec find i =
      i + n <= String.length text
      && (String.sub text i n = needle || find (i + 1))
    in
    find 0
  in
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "renders %S" line) true (has line))
    [
      "# TYPE tt_t_expose_ops_total counter";
      "tt_t_expose_ops_total 3";
      "tt_t_expose_depth_max 12";
      "# TYPE tt_t_expose_lat summary";
      "tt_t_expose_lat{quantile=\"0.5\"} 2";
      "tt_t_expose_lat{quantile=\"0.9\"} 20";
      "tt_t_expose_lat{quantile=\"0.99\"} 20";
      "tt_t_expose_lat{quantile=\"0.999\"} 20";
      "tt_t_expose_lat_sum 23";
      "tt_t_expose_lat_count 3";
    ]

let test_expose_metric_name () =
  Alcotest.(check string) "sanitized + namespaced" "hmn_a_b_c"
    (Expose.metric_name "a.b/c");
  Alcotest.(check string) "no namespace" "a_b" (Expose.metric_name ~namespace:"" "a.b");
  (* a leading digit is illegal bare; the guard prefixes an underscore *)
  Alcotest.(check string) "leading digit guarded" "_9lives"
    (Expose.metric_name ~namespace:"" "9lives")

(* A %g-printed sum keeps 6 significant digits (1234567 -> 1.23457e+06);
   the integer sum must export exactly. *)
let test_expose_sum_exact () =
  Metrics.enable ();
  Metrics.reset ();
  let h = Metrics.histogram "t.expose.big" in
  List.iter (Metrics.Histogram.observe h) [ 1_000_000; 234_567 ];
  let text = Expose.render ~namespace:"" (Metrics.snapshot ()) in
  Metrics.disable ();
  Alcotest.(check bool) "exact _sum line" true
    (List.mem "t_expose_big_sum 1234567" (String.split_on_char '\n' text))

(* ---- trace counters, ordering and escaping ---- *)

let test_trace_counters_and_escaping () =
  Trace.enable ();
  Trace.clear ();
  (* counters buffered out of order and with a hostile name: the writer
     must sort deterministically and keep the JSON parseable *)
  Trace.counter ~name:"online/lbf" ~ts_us:20. [ ("v", 2.) ];
  Trace.counter ~name:"online/lbf" ~ts_us:10. [ ("v", 1.) ];
  Trace.counter ~name:"bad\xffname\n" ~ts_us:10. [ ("v", 0.) ];
  ignore (Trace.with_span ~args:[ ("k", "va\x01l") ] "span" (fun () -> ()));
  Alcotest.(check int) "four events" 4 (Trace.span_count ());
  let path = Filename.temp_file "hmn_trace_c" ".json" in
  Trace.write ~path;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Trace.disable ();
  Trace.clear ();
  String.iter
    (fun c ->
      Alcotest.(check bool) "printable ASCII only" true
        (Char.code c >= 0x20 && Char.code c < 0x7F || c = '\n'))
    text;
  match Hmn_prelude.Json.of_string text with
  | Error e -> Alcotest.failf "counter trace does not parse: %s" e
  | Ok doc ->
    let open Hmn_prelude.Json in
    let events =
      match
        let* evs = member "traceEvents" doc in
        to_list evs
      with
      | Ok evs -> evs
      | Error e -> Alcotest.failf "traceEvents: %s" e
    in
    let phases =
      List.map
        (fun ev ->
          match
            let* v = member "ph" ev in
            to_str v
          with
          | Ok s -> s
          | Error e -> Alcotest.failf "ph: %s" e)
        events
    in
    (* total order: both ts=10 counters before the ts=20 one; names
       break the tie at ts=10 *)
    Alcotest.(check (list string)) "counter phases sorted with span" [ "C"; "C"; "C"; "X" ]
      (List.sort compare phases);
    let stamps =
      List.filter_map
        (fun ev ->
          match
            let* p = member "ph" ev in
            let* p = to_str p in
            if p <> "C" then Ok None
            else
              let* ts = member "ts" ev in
              let* ts = to_float ts in
              Ok (Some ts)
          with
          | Ok x -> x
          | Error e -> Alcotest.failf "ts: %s" e)
        events
    in
    Alcotest.(check (list (float 0.))) "counters time-ordered" [ 10.; 10.; 20. ]
      stamps

let test_trace_write_deterministic () =
  (* same buffered content, two writes: byte-identical files *)
  let fill () =
    Trace.enable ();
    Trace.clear ();
    Trace.counter ~name:"c" ~ts_us:5. [ ("v", 1.); ("w", 2.) ];
    Trace.counter ~name:"b" ~ts_us:5. [ ("v", 3.) ];
    let path = Filename.temp_file "hmn_trace_d" ".json" in
    Trace.write ~path;
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    Trace.disable ();
    Trace.clear ();
    text
  in
  Alcotest.(check string) "byte-identical rewrites" (fill ()) (fill ())

let () =
  Alcotest.run "hmn_obs"
    [
      ( "metrics registry",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "gauge keeps maximum" `Quick test_gauge_keeps_maximum;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "render stable" `Quick test_render_stable;
          Alcotest.test_case "disabled sink is inert" `Quick test_disabled_is_inert;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
      ( "tracer",
        [
          Alcotest.test_case "spans and JSON" `Quick test_trace_spans_and_json;
          Alcotest.test_case "disabled records nothing" `Quick
            test_trace_disabled_records_nothing;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "exact below precision" `Quick
            test_quantile_exact_below_precision;
          Alcotest.test_case "relative error bound" `Quick
            test_quantile_relative_error;
          QCheck_alcotest.to_alcotest prop_quantile_monotone_in_q;
          QCheck_alcotest.to_alcotest prop_quantile_merge_exact;
          Alcotest.test_case "merge guards" `Quick test_quantile_merge_guards;
        ] );
      ( "timeseries",
        [ Alcotest.test_case "ring buffer" `Quick test_timeseries_ring ] );
      ( "expose",
        [
          Alcotest.test_case "prometheus render" `Quick test_expose_render;
          Alcotest.test_case "metric names" `Quick test_expose_metric_name;
          Alcotest.test_case "summary sum is exact" `Quick test_expose_sum_exact;
        ] );
      ( "trace counters",
        [
          Alcotest.test_case "ordering and escaping" `Quick
            test_trace_counters_and_escaping;
          Alcotest.test_case "deterministic write" `Quick
            test_trace_write_deterministic;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 aggregates" `Quick
            test_metrics_jobs_determinism;
        ] );
    ]
