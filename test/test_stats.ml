(* Tests for hmn_stats: descriptive statistics with known values,
   percentiles, correlations and the Welford online aggregator. *)

module D = Hmn_stats.Descriptive
module C = Hmn_stats.Correlation
module R = Hmn_stats.Running

let check_float = Alcotest.(check (float 1e-9))

let test_mean_stddev () =
  check_float "mean" 3. (D.mean [| 1.; 2.; 3.; 4.; 5. |]);
  check_float "population sd" (sqrt 2.) (D.stddev [| 1.; 2.; 3.; 4.; 5. |]);
  check_float "sample sd" (sqrt 2.5) (D.stddev ~sample:true [| 1.; 2.; 3.; 4.; 5. |]);
  check_float "constant sd" 0. (D.stddev [| 7.; 7.; 7. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Descriptive.variance: empty input")
    (fun () -> ignore (D.stddev [||]));
  Alcotest.check_raises "singleton sample variance"
    (Invalid_argument "Descriptive.variance: need at least two samples") (fun () ->
      ignore (D.variance ~sample:true [| 1. |]))

let test_summarize () =
  let s = D.summarize [| 4.; 1.; 3. |] in
  Alcotest.(check int) "n" 3 s.D.n;
  check_float "min" 1. s.D.min;
  check_float "max" 4. s.D.max;
  check_float "mean" (8. /. 3.) s.D.mean;
  Alcotest.(check bool) "pp" true
    (String.length (Format.asprintf "%a" D.pp_summary s) > 0)

let test_percentile () =
  let xs = [| 15.; 20.; 35.; 40.; 50. |] in
  check_float "p0" 15. (D.percentile xs ~p:0.);
  check_float "p100" 50. (D.percentile xs ~p:100.);
  check_float "median" 35. (D.median xs);
  check_float "p25" 20. (D.percentile xs ~p:25.);
  (* Interpolated percentile. *)
  check_float "p10 interpolated" 17. (D.percentile xs ~p:10.);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Descriptive.percentile: p out of range") (fun () ->
      ignore (D.percentile xs ~p:101.))

let test_pearson_known () =
  check_float "perfect" 1. (C.pearson [| 1.; 2.; 3. |] [| 10.; 20.; 30. |]);
  check_float "perfect negative" (-1.) (C.pearson [| 1.; 2.; 3. |] [| 3.; 2.; 1. |]);
  let r = C.pearson [| 1.; 2.; 3.; 4. |] [| 1.; 3.; 2.; 4. |] in
  Alcotest.(check bool) "positive but imperfect" true (r > 0. && r < 1.);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Correlation.pearson: length mismatch") (fun () ->
      ignore (C.pearson [| 1. |] [| 1.; 2. |]));
  Alcotest.check_raises "zero variance"
    (Invalid_argument "Correlation.pearson: zero variance") (fun () ->
      ignore (C.pearson [| 1.; 1. |] [| 1.; 2. |]))

let test_spearman () =
  (* Monotone but non-linear: Spearman 1, Pearson < 1. *)
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  let ys = Array.map (fun x -> x ** 5.) xs in
  check_float "monotone rho" 1. (C.spearman xs ys);
  Alcotest.(check bool) "pearson below" true (C.pearson xs ys < 1.);
  (* Ties get average ranks. *)
  let rho = C.spearman [| 1.; 1.; 2. |] [| 2.; 2.; 4. |] in
  check_float "tied ranks" 1. rho

let test_running_matches_batch () =
  let xs = [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. |] in
  let r = R.create () in
  Array.iter (R.add r) xs;
  Alcotest.(check int) "count" 8 (R.count r);
  check_float "mean" (D.mean xs) (R.mean r);
  check_float "stddev" (D.stddev xs) (R.stddev r);
  check_float "min" 1. (R.min r);
  check_float "max" 9. (R.max r)

let test_running_empty_and_single () =
  let r = R.create () in
  Alcotest.check_raises "empty mean" (Invalid_argument "Running.mean: no samples")
    (fun () -> ignore (R.mean r));
  R.add r 5.;
  check_float "single mean" 5. (R.mean r);
  check_float "single sd" 0. (R.stddev r)

let prop_running_equals_batch =
  QCheck.Test.make ~name:"Welford matches batch statistics" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 100) (float_range (-1000.) 1000.))
    (fun xs ->
      let arr = Array.of_list xs in
      let r = R.create () in
      Array.iter (R.add r) arr;
      Hmn_prelude.Float_ext.approx ~eps:1e-6 (R.mean r) (D.mean arr)
      && Hmn_prelude.Float_ext.approx ~eps:1e-6 (R.stddev r) (D.stddev arr))

let prop_pearson_bounded =
  QCheck.Test.make ~name:"Pearson r stays in [-1, 1]" ~count:200
    QCheck.(list_of_size Gen.(int_range 2 50) (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun pts ->
      let xs = Array.of_list (List.map fst pts) in
      let ys = Array.of_list (List.map snd pts) in
      match C.pearson xs ys with
      | r -> r >= -1.0000001 && r <= 1.0000001
      | exception Invalid_argument _ -> true)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range 0. 100.))
    (fun xs ->
      let arr = Array.of_list xs in
      let p25 = D.percentile arr ~p:25. in
      let p50 = D.percentile arr ~p:50. in
      let p75 = D.percentile arr ~p:75. in
      p25 <= p50 && p50 <= p75)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "hmn_stats"
    [
      ( "descriptive",
        [
          Alcotest.test_case "mean & stddev" `Quick test_mean_stddev;
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "percentiles" `Quick test_percentile;
        ] );
      ( "correlation",
        [
          Alcotest.test_case "pearson" `Quick test_pearson_known;
          Alcotest.test_case "spearman" `Quick test_spearman;
        ] );
      ( "running",
        [
          Alcotest.test_case "matches batch" `Quick test_running_matches_batch;
          Alcotest.test_case "empty & single" `Quick test_running_empty_and_single;
        ] );
      ( "properties",
        [
          q prop_running_equals_batch;
          q prop_pearson_bounded;
          q prop_percentile_monotone;
        ] );
    ]
