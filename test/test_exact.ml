(* Tests for hmn_exact: the water-filling lower bound against
   hand-computed optima, and the branch-and-bound cross-checked against
   the brute-force [Exhaustive] search on tiny instances. *)

module Graph = Hmn_graph.Graph
module Node = Hmn_testbed.Node
module Link = Hmn_testbed.Link
module Resources = Hmn_testbed.Resources
module Guest = Hmn_vnet.Guest
module Vlink = Hmn_vnet.Vlink
module Venv = Hmn_vnet.Virtual_env
module Problem = Hmn_mapping.Problem
module Validator = Hmn_validate.Validator
module Bound = Hmn_exact.Bound
module Solver = Hmn_exact.Solver

let host ?(mips = 2000.) ?(mem = 2048.) ?(stor = 1000.) i =
  Node.host
    ~name:(Printf.sprintf "h%d" i)
    ~capacity:(Resources.make ~mips ~mem_mb:mem ~stor_gb:stor)

let guest ?(mips = 100.) ?(mem = 200.) ?(stor = 10.) name =
  Guest.make ~name ~demand:(Resources.make ~mips ~mem_mb:mem ~stor_gb:stor)

let check_float = Alcotest.(check (float 1e-6))

(* ---- Bound ---- *)

let test_bound_uncapped () =
  (* r = [10; 0], demand 4: the water fills the taller host only,
     x = [4; 0], residuals [6; 0] around mean 3 — stddev 3. *)
  match
    Bound.stddev_lower ~residual_cpus:[| 10.; 0. |]
      ~caps:[| infinity; infinity |] ~demand:4.
  with
  | None -> Alcotest.fail "expected a bound"
  | Some b -> check_float "water-filling optimum" 3. b

let test_bound_perfect_balance () =
  (* Demand exactly levels the hosts: bound 0. *)
  match
    Bound.stddev_lower ~residual_cpus:[| 10.; 0. |]
      ~caps:[| infinity; infinity |] ~demand:10.
  with
  | None -> Alcotest.fail "expected a bound"
  | Some b -> check_float "levelled" 0. b

let test_bound_caps_bind () =
  (* Host 0 capped at 2: x = [2; 2], residuals [8; -2] around mean 3 —
     stddev 5. *)
  match
    Bound.stddev_lower ~residual_cpus:[| 10.; 0. |] ~caps:[| 2.; infinity |]
      ~demand:4.
  with
  | None -> Alcotest.fail "expected a bound"
  | Some b -> check_float "capped optimum" 5. b

let test_bound_infeasible () =
  Alcotest.(check bool)
    "sum caps < demand" true
    (Bound.stddev_lower ~residual_cpus:[| 10.; 0. |] ~caps:[| 1.; 1. |]
       ~demand:4.
    = None)

let test_bound_zero_demand () =
  (* Nothing left to place: the bound is the stddev of r itself. *)
  match
    Bound.stddev_lower ~residual_cpus:[| 4.; 0. |] ~caps:[| 0.; 0. |] ~demand:0.
  with
  | None -> Alcotest.fail "expected a bound"
  | Some b -> check_float "plain stddev" 2. b

let test_bound_validation () =
  Alcotest.check_raises "no hosts" (Invalid_argument "Bound.stddev_lower: no hosts")
    (fun () ->
      ignore (Bound.stddev_lower ~residual_cpus:[||] ~caps:[||] ~demand:1.));
  Alcotest.check_raises "negative demand"
    (Invalid_argument "Bound.stddev_lower: negative demand") (fun () ->
      ignore
        (Bound.stddev_lower ~residual_cpus:[| 1. |] ~caps:[| 1. |] ~demand:(-1.)))

let prop_bound_never_exceeds_leaves =
  (* The relaxation lower-bounds the best integral completion: compare
     against brute force on random micro-instances. *)
  QCheck.Test.make ~name:"bound is a true lower bound (brute force)" ~count:200
    QCheck.small_nat
    (fun seed ->
      let rng = Hmn_rng.Rng.create (seed + 4242) in
      let nh = 2 + Hmn_rng.Rng.int rng ~bound:3 in
      let ng = 1 + Hmn_rng.Rng.int rng ~bound:5 in
      let r = Array.init nh (fun _ -> Hmn_rng.Rng.float_in rng ~lo:0. ~hi:10.) in
      let caps = Array.init nh (fun _ -> Hmn_rng.Rng.float_in rng ~lo:0.5 ~hi:8.) in
      let demands =
        Array.init ng (fun _ -> Hmn_rng.Rng.float_in rng ~lo:0.1 ~hi:2.)
      in
      let total = Array.fold_left ( +. ) 0. demands in
      let stddev xs =
        let n = float_of_int (Array.length xs) in
        let mean = Array.fold_left ( +. ) 0. xs /. n in
        let var =
          Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. xs /. n
        in
        sqrt var
      in
      (* Brute-force best integral assignment under the same caps. *)
      let best = ref infinity in
      let load = Array.make nh 0. in
      let rec go g =
        if g = ng then begin
          let res = Array.init nh (fun i -> r.(i) -. load.(i)) in
          let s = stddev res in
          if s < !best then best := s
        end
        else
          for i = 0 to nh - 1 do
            if load.(i) +. demands.(g) <= caps.(i) then begin
              load.(i) <- load.(i) +. demands.(g);
              go (g + 1);
              load.(i) <- load.(i) -. demands.(g)
            end
          done
      in
      go 0;
      match Bound.stddev_lower ~residual_cpus:r ~caps ~demand:total with
      | None -> !best = infinity || QCheck.Test.fail_report "bound said infeasible"
      | Some b -> !best = infinity || b <= !best +. 1e-9)

(* ---- Solver vs Exhaustive ---- *)

let tiny_problem seed =
  let rng = Hmn_rng.Rng.create (seed + 7300) in
  let nh = 3 + Hmn_rng.Rng.int rng ~bound:3 in
  let hosts =
    Array.init nh (fun i ->
        host
          ~mips:(1000. +. (2000. *. Hmn_rng.Rng.float rng))
          ~mem:(1024. +. (2048. *. Hmn_rng.Rng.float rng))
          i)
  in
  let cluster = Hmn_testbed.Topology.ring ~hosts ~link:Link.gigabit in
  let ng = 3 + Hmn_rng.Rng.int rng ~bound:6 in
  let venv =
    Hmn_vnet.Venv_gen.generate ~profile:Hmn_vnet.Workload.high_level ~n:ng
      ~density:0.3 ~rng ()
  in
  Problem.make ~cluster ~venv

let prop_solver_matches_exhaustive =
  QCheck.Test.make ~name:"placement-mode B&B agrees with Exhaustive" ~count:60
    QCheck.small_nat
    (fun seed ->
      let problem = tiny_problem seed in
      let config = { Solver.default_config with routing = false } in
      let result = Solver.solve ~config problem in
      if result.Solver.status <> Solver.Optimal then
        QCheck.Test.fail_report "budget exhausted on a tiny instance";
      match (Hmn_core.Exhaustive.optimal_placement problem, Solver.optimum result) with
      | Error _, Some _ -> QCheck.Test.fail_report "solver feasible, exhaustive not"
      | Ok _, None -> QCheck.Test.fail_report "exhaustive feasible, solver not"
      | Error _, None -> Solver.proven_optimal result
      | Ok (_, opt), Some o ->
        if Float.abs (o -. opt) > 1e-6 then
          QCheck.Test.fail_reportf "objectives differ: solver %.9f vs exhaustive %.9f"
            o opt;
        if not (Solver.proven_optimal result) then
          QCheck.Test.fail_reportf "optimum %.9f not proven (lower bound %.9f)" o
            result.Solver.lower_bound;
        true)

let prop_routing_mode_sound =
  (* Routing mode: the certified mapping is valid, its objective is
     within the proven bounds, and it never beats the placement-only
     optimum (its search space is a subset). *)
  QCheck.Test.make ~name:"routing-mode B&B returns valid proven mappings" ~count:25
    QCheck.small_nat
    (fun seed ->
      let problem = tiny_problem seed in
      let result = Solver.solve problem in
      if result.Solver.status <> Solver.Optimal then
        QCheck.Test.fail_report "budget exhausted on a tiny instance";
      match result.Solver.best_mapping with
      | None -> true
      | Some (obj, mapping) ->
        if not (Validator.is_valid mapping) then
          QCheck.Test.fail_report "certified mapping violates constraints";
        if obj < result.Solver.lower_bound -. 1e-9 then
          QCheck.Test.fail_report "optimum below its own lower bound";
        (match Hmn_core.Exhaustive.optimal_placement problem with
        | Error _ -> QCheck.Test.fail_report "routable but placement-infeasible"
        | Ok (_, opt) ->
          if obj < opt -. 1e-6 then
            QCheck.Test.fail_report "mapping beats the placement optimum";
          true))

let test_budget_exhaustion () =
  (* A one-node budget still yields a valid (if loose) lower bound. *)
  let problem = tiny_problem 5 in
  let config = { Solver.node_budget = 1; routing = false } in
  let result = Solver.solve ~config problem in
  Alcotest.(check bool)
    "budget exhausted" true
    (result.Solver.status = Solver.Budget_exhausted);
  match Hmn_core.Exhaustive.optimal_placement problem with
  | Error _ -> ()
  | Ok (_, opt) ->
    Alcotest.(check bool)
      "bound below optimum" true
      (result.Solver.lower_bound <= opt +. 1e-9)

let test_infeasible_instance () =
  (* One host, two guests that cannot share its memory: proven empty. *)
  let cluster =
    Hmn_testbed.Topology.line
      ~hosts:[| host ~mem:1000. 0 |]
      ~link:Link.gigabit
  in
  let guests = [| guest ~mem:600. "a"; guest ~mem:600. "b" |] in
  let vg = Graph.create ~n:2 () in
  ignore (Graph.add_edge vg 0 1 (Vlink.make ~bandwidth_mbps:10. ~latency_ms:40.));
  let problem = Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:vg) in
  let result = Solver.solve problem in
  Alcotest.(check bool) "no mapping" true (Solver.optimum result = None);
  Alcotest.(check bool) "proven infeasible" true (Solver.proven_optimal result);
  check_float "lower bound infinite" infinity result.Solver.lower_bound

let test_warm_start_accelerates () =
  (* Warm-starting with the solver's own optimum cannot change the
     answer and must not expand more nodes. *)
  let problem = tiny_problem 11 in
  let cold = Solver.solve problem in
  match cold.Solver.best_mapping with
  | None -> Alcotest.fail "expected a feasible tiny instance"
  | Some (obj, mapping) ->
    let warm = Solver.solve ~warm:[ mapping ] problem in
    (match Solver.optimum warm with
    | None -> Alcotest.fail "warm run lost the optimum"
    | Some o -> check_float "same optimum" obj o);
    Alcotest.(check bool)
      "warm expands no more nodes" true
      (warm.Solver.nodes <= cold.Solver.nodes)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "hmn_exact"
    [
      ( "bound",
        [
          Alcotest.test_case "uncapped water-filling" `Quick test_bound_uncapped;
          Alcotest.test_case "perfect balance" `Quick test_bound_perfect_balance;
          Alcotest.test_case "caps bind" `Quick test_bound_caps_bind;
          Alcotest.test_case "infeasible" `Quick test_bound_infeasible;
          Alcotest.test_case "zero demand" `Quick test_bound_zero_demand;
          Alcotest.test_case "validation" `Quick test_bound_validation;
          q prop_bound_never_exceeds_leaves;
        ] );
      ( "solver",
        [
          q prop_solver_matches_exhaustive;
          q prop_routing_mode_sound;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "infeasible instance" `Quick test_infeasible_instance;
          Alcotest.test_case "warm start" `Quick test_warm_start_accelerates;
        ] );
    ]
