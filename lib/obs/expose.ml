let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let metric_name ?(namespace = "hmn") name =
  let base = sanitize name in
  let base =
    (* a leading digit is invalid without a prefix *)
    if base = "" then "unnamed"
    else
      match base.[0] with '0' .. '9' -> "_" ^ base | _ -> base
  in
  if namespace = "" then base else sanitize namespace ^ "_" ^ base

let add_family buf ~name ~kind ~samples =
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind);
  List.iter (fun line -> Buffer.add_string buf line) samples

let summary_quantiles = [ 0.5; 0.9; 0.99; 0.999 ]

let render ?namespace (s : Metrics.snapshot) =
  let buf = Buffer.create 2048 in
  List.iter
    (fun (name, v) ->
      let n = metric_name ?namespace name ^ "_total" in
      add_family buf ~name:n ~kind:"counter"
        ~samples:[ Printf.sprintf "%s %d\n" n v ])
    s.counters;
  List.iter
    (fun (name, v) ->
      let n = metric_name ?namespace name ^ "_max" in
      add_family buf ~name:n ~kind:"gauge"
        ~samples:[ Printf.sprintf "%s %d\n" n v ])
    s.gauge_maxima;
  List.iter
    (fun (name, (h : Metrics.histogram_snapshot)) ->
      let n = metric_name ?namespace name in
      add_family buf ~name:n ~kind:"summary"
        ~samples:
          (List.map
             (fun q ->
               Printf.sprintf "%s{quantile=\"%g\"} %d\n" n q
                 (Quantile.quantile h.quantile q))
             summary_quantiles
          @ [
              Printf.sprintf "%s_sum %d\n" n h.sum;
              Printf.sprintf "%s_count %d\n" n (Quantile.count h.quantile);
            ]))
    s.histograms;
  Buffer.contents buf
