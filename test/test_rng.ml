(* Tests for hmn_rng: generator determinism, stream independence,
   distribution ranges and moments, sampling utilities. *)

module Rng = Hmn_rng.Rng
module Dist = Hmn_rng.Dist
module Sample = Hmn_rng.Sample

let test_splitmix_deterministic () =
  let a = Hmn_rng.Splitmix64.create 1L and b = Hmn_rng.Splitmix64.create 1L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Hmn_rng.Splitmix64.next a)
      (Hmn_rng.Splitmix64.next b)
  done

let test_splitmix_known_value () =
  (* Reference value from the SplitMix64 paper's sequence for seed 0:
     first output is 0xE220A8397B1DCDAF. *)
  let g = Hmn_rng.Splitmix64.create 0L in
  Alcotest.(check int64) "published first output" 0xE220A8397B1DCDAFL
    (Hmn_rng.Splitmix64.next g)

let test_splitmix_bound () =
  let g = Hmn_rng.Splitmix64.create 7L in
  for _ = 1 to 1000 do
    let x = Hmn_rng.Splitmix64.next_in g ~bound:10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Splitmix64.next_in: bound <= 0")
    (fun () -> ignore (Hmn_rng.Splitmix64.next_in g ~bound:0))

let test_xoshiro_deterministic () =
  let a = Hmn_rng.Xoshiro256ss.create 42L and b = Hmn_rng.Xoshiro256ss.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Hmn_rng.Xoshiro256ss.next a)
      (Hmn_rng.Xoshiro256ss.next b)
  done

let test_xoshiro_copy_independent () =
  let a = Hmn_rng.Xoshiro256ss.create 42L in
  let b = Hmn_rng.Xoshiro256ss.copy a in
  let xa = Hmn_rng.Xoshiro256ss.next a in
  let xb = Hmn_rng.Xoshiro256ss.next b in
  Alcotest.(check int64) "copy continues identically" xa xb;
  ignore (Hmn_rng.Xoshiro256ss.next a);
  (* advancing a must not affect b *)
  let b' = Hmn_rng.Xoshiro256ss.copy b in
  Alcotest.(check int64) "b unaffected" (Hmn_rng.Xoshiro256ss.next b)
    (Hmn_rng.Xoshiro256ss.next b')

let test_xoshiro_jump_changes_stream () =
  let a = Hmn_rng.Xoshiro256ss.create 42L in
  let b = Hmn_rng.Xoshiro256ss.create 42L in
  Hmn_rng.Xoshiro256ss.jump b;
  let differs = ref false in
  for _ = 1 to 16 do
    if Hmn_rng.Xoshiro256ss.next a <> Hmn_rng.Xoshiro256ss.next b then differs := true
  done;
  Alcotest.(check bool) "jumped stream differs" true !differs

let test_rng_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_int_uniformity () =
  (* chi-square-lite: all 10 buckets within 3x of each other over 10k draws *)
  let rng = Rng.create 17 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let k = Rng.int rng ~bound:10 in
    counts.(k) <- counts.(k) + 1
  done;
  let mn = Array.fold_left min max_int counts in
  let mx = Array.fold_left max 0 counts in
  Alcotest.(check bool) "roughly uniform" true (mn > 0 && mx < 3 * mn)

let test_rng_int_in () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int_in rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "inclusive range" true (x >= -5 && x <= 5)
  done;
  Alcotest.(check int) "degenerate range" 7 (Rng.int_in rng ~lo:7 ~hi:7);
  Alcotest.check_raises "inverted" (Invalid_argument "Rng.int_in: lo > hi")
    (fun () -> ignore (Rng.int_in rng ~lo:1 ~hi:0))

let test_rng_split_independence () =
  (* The child stream must not track the parent stream. *)
  let p1 = Rng.create 9 in
  let c1 = Rng.split p1 in
  let p2 = Rng.create 9 in
  let c2 = Rng.split p2 in
  Alcotest.(check bool) "same-seed splits agree" true
    (Rng.int c1 ~bound:1_000_000 = Rng.int c2 ~bound:1_000_000);
  let overlap = ref 0 in
  for _ = 1 to 100 do
    if Rng.int p1 ~bound:1000 = Rng.int c1 ~bound:1000 then incr overlap
  done;
  Alcotest.(check bool) "parent/child do not mirror" true (!overlap < 20)

let test_dist_uniform_range () =
  let rng = Rng.create 23 in
  let d = Dist.Uniform (10., 20.) in
  for _ = 1 to 1000 do
    let x = Dist.draw d rng in
    Alcotest.(check bool) "in range" true (x >= 10. && x < 20.)
  done

let test_dist_uniform_mean () =
  let rng = Rng.create 23 in
  let d = Dist.Uniform (0., 1.) in
  let xs = Array.init 20_000 (fun _ -> Dist.draw d rng) in
  let mean = Hmn_prelude.Float_ext.mean xs in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_dist_normal_moments () =
  let rng = Rng.create 29 in
  let d = Dist.Normal (5., 2.) in
  let xs = Array.init 20_000 (fun _ -> Dist.draw d rng) in
  let mean = Hmn_prelude.Float_ext.mean xs in
  let sd =
    sqrt
      (Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. xs
      /. float_of_int (Array.length xs))
  in
  Alcotest.(check bool) "mean near 5" true (Float.abs (mean -. 5.) < 0.1);
  Alcotest.(check bool) "sd near 2" true (Float.abs (sd -. 2.) < 0.1)

let test_dist_truncated_normal () =
  let rng = Rng.create 31 in
  let d = Dist.Truncated_normal (0., 10., -1., 1.) in
  for _ = 1 to 1000 do
    let x = Dist.draw d rng in
    Alcotest.(check bool) "within bounds" true (x >= -1. && x <= 1.)
  done

let test_dist_exponential () =
  let rng = Rng.create 37 in
  let d = Dist.Exponential 2. in
  let xs = Array.init 20_000 (fun _ -> Dist.draw d rng) in
  Alcotest.(check bool) "all non-negative" true (Array.for_all (fun x -> x >= 0.) xs);
  let mean = Hmn_prelude.Float_ext.mean xs in
  Alcotest.(check bool) "mean near 1/rate" true (Float.abs (mean -. 0.5) < 0.02)

let test_dist_errors_and_mean () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "negative sigma" (Invalid_argument "Dist.draw: negative sigma")
    (fun () -> ignore (Dist.draw (Dist.Normal (0., -1.)) rng));
  Alcotest.check_raises "bad rate" (Invalid_argument "Dist.draw: non-positive rate")
    (fun () -> ignore (Dist.draw (Dist.Exponential 0.) rng));
  Alcotest.(check (float 1e-9)) "uniform mean" 15. (Dist.mean (Dist.Uniform (10., 20.)));
  Alcotest.(check (float 1e-9)) "constant" 3. (Dist.draw (Dist.Constant 3.) rng)

let test_shuffle_permutation () =
  let rng = Rng.create 41 in
  let xs = Array.init 50 Fun.id in
  let shuffled = Array.copy xs in
  Sample.shuffle rng shuffled;
  Alcotest.(check bool) "reordered" false (shuffled = xs);
  let sorted = Array.copy shuffled in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" xs sorted

let test_choice_and_choose_k () =
  let rng = Rng.create 43 in
  let xs = [| 1; 2; 3; 4; 5 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "choice member" true (Array.mem (Sample.choice rng xs) xs)
  done;
  let k = Sample.choose_k rng 3 xs in
  Alcotest.(check int) "k elements" 3 (Array.length k);
  let dedup = List.sort_uniq compare (Array.to_list k) in
  Alcotest.(check int) "distinct" 3 (List.length dedup);
  Alcotest.check_raises "k too large" (Invalid_argument "Sample.choose_k: bad k")
    (fun () -> ignore (Sample.choose_k rng 6 xs))

let test_weighted_index () =
  let rng = Rng.create 47 in
  let counts = Array.make 3 0 in
  for _ = 1 to 10_000 do
    let i = Sample.weighted_index rng [| 1.; 0.; 3. |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(1);
  Alcotest.(check bool) "3:1 ratio approximately" true
    (float_of_int counts.(2) /. float_of_int counts.(0) > 2.);
  Alcotest.check_raises "all zero"
    (Invalid_argument "Sample.weighted_index: all-zero weights") (fun () ->
      ignore (Sample.weighted_index rng [| 0.; 0. |]))

(* ---- properties ---- *)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays below its bound" ~count:200
    QCheck.(pair small_nat (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let x = Rng.int rng ~bound in
        if x < 0 || x >= bound then ok := false
      done;
      !ok)

let prop_float_in_bounds =
  QCheck.Test.make ~name:"Rng.float_in stays inside [lo, hi)" ~count:200
    QCheck.(triple small_nat (float_range (-100.) 100.) (float_range 0.001 100.))
    (fun (seed, lo, width) ->
      let rng = Rng.create seed in
      let hi = lo +. width in
      let x = Rng.float_in rng ~lo ~hi in
      x >= lo && x < hi)

let prop_shuffle_multiset =
  QCheck.Test.make ~name:"shuffle preserves the multiset" ~count:200
    QCheck.(pair small_nat (array_of_size Gen.(int_range 0 30) small_int))
    (fun (seed, xs) ->
      let rng = Rng.create seed in
      let copy = Array.copy xs in
      Sample.shuffle rng copy;
      List.sort compare (Array.to_list copy) = List.sort compare (Array.to_list xs))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "hmn_rng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "known value" `Quick test_splitmix_known_value;
          Alcotest.test_case "bounded" `Quick test_splitmix_bound;
        ] );
      ( "xoshiro256**",
        [
          Alcotest.test_case "deterministic" `Quick test_xoshiro_deterministic;
          Alcotest.test_case "copy" `Quick test_xoshiro_copy_independent;
          Alcotest.test_case "jump" `Quick test_xoshiro_jump_changes_stream;
        ] );
      ( "rng",
        [
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int uniformity" `Quick test_rng_int_uniformity;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
        ] );
      ( "dist",
        [
          Alcotest.test_case "uniform range" `Quick test_dist_uniform_range;
          Alcotest.test_case "uniform mean" `Quick test_dist_uniform_mean;
          Alcotest.test_case "normal moments" `Quick test_dist_normal_moments;
          Alcotest.test_case "truncated normal" `Quick test_dist_truncated_normal;
          Alcotest.test_case "exponential" `Quick test_dist_exponential;
          Alcotest.test_case "errors and means" `Quick test_dist_errors_and_mean;
        ] );
      ( "sample",
        [
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "choice / choose_k" `Quick test_choice_and_choose_k;
          Alcotest.test_case "weighted index" `Quick test_weighted_index;
        ] );
      ( "properties",
        [ q prop_int_in_bounds; q prop_float_in_bounds; q prop_shuffle_multiset ] );
    ]
