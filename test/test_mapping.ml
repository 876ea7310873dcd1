(* Tests for hmn_mapping: problems, placements, link maps, the
   objective (Eqs. 10-12), the validator's verdict (Eqs. 1-9) on
   mappings built from real placements and link maps, and the reporting
   helpers. *)

module Graph = Hmn_graph.Graph
module Cluster = Hmn_testbed.Cluster
module Node = Hmn_testbed.Node
module Link = Hmn_testbed.Link
module Resources = Hmn_testbed.Resources
module Guest = Hmn_vnet.Guest
module Vlink = Hmn_vnet.Vlink
module Venv = Hmn_vnet.Virtual_env
module Problem = Hmn_mapping.Problem
module Placement = Hmn_mapping.Placement
module Link_map = Hmn_mapping.Link_map
module Mapping = Hmn_mapping.Mapping
module Objective = Hmn_mapping.Objective
module Validator = Hmn_validate.Validator
module Path = Hmn_routing.Path

(* Fixture: 3 hosts on a line (0-1-2), 4 guests in a star around guest
   0 (0-1, 0-2, 0-3). *)
let fixture () =
  let host i mips =
    Node.host
      ~name:(Printf.sprintf "h%d" i)
      ~capacity:(Resources.make ~mips ~mem_mb:1000. ~stor_gb:100.)
  in
  let hosts = [| host 0 1000.; host 1 2000.; host 2 3000. |] in
  let cluster = Hmn_testbed.Topology.line ~hosts ~link:Link.gigabit in
  let guest i = Guest.make ~name:(Printf.sprintf "vm%d" i)
      ~demand:(Resources.make ~mips:100. ~mem_mb:200. ~stor_gb:10.) in
  let guests = Array.init 4 guest in
  let vg = Graph.create ~n:4 () in
  let vlink = Vlink.make ~bandwidth_mbps:10. ~latency_ms:40. in
  let l1 = Graph.add_edge vg 0 1 vlink in
  let l2 = Graph.add_edge vg 0 2 vlink in
  let l3 = Graph.add_edge vg 0 3 vlink in
  let venv = Venv.create ~guests ~graph:vg in
  (Problem.make ~cluster ~venv, l1, l2, l3)

let phys_edge problem u v =
  match Graph.find_edge (Cluster.graph problem.Problem.cluster) u v with
  | Some e -> e
  | None -> Alcotest.failf "no physical edge %d-%d" u v

(* ---- Problem ---- *)

let test_problem_basics () =
  let problem, _, _, _ = fixture () in
  Alcotest.(check (float 1e-9)) "ratio" (4. /. 3.)
    (Problem.guests_per_host_ratio problem);
  Alcotest.(check (option string)) "feasible screen" None
    (Problem.obviously_infeasible problem)

let test_problem_infeasible_screen () =
  let problem, _, _, _ = fixture () in
  let big =
    Guest.make ~name:"big"
      ~demand:(Resources.make ~mips:0. ~mem_mb:1e7 ~stor_gb:0.)
  in
  let vg = Graph.create ~n:1 () in
  let venv = Venv.create ~guests:[| big |] ~graph:vg in
  let p = Problem.make ~cluster:problem.Problem.cluster ~venv in
  Alcotest.(check bool) "memory screen trips" true
    (Problem.obviously_infeasible p <> None)

(* ---- Placement ---- *)

let test_placement_assign () =
  let problem, _, _, _ = fixture () in
  let p = Placement.create problem in
  Alcotest.(check int) "none assigned" 0 (Placement.n_assigned p);
  Alcotest.(check bool) "assign ok" true (Result.is_ok (Placement.assign p ~guest:0 ~host:1));
  Alcotest.(check (option int)) "host_of" (Some 1) (Placement.host_of p ~guest:0);
  Alcotest.(check bool) "double assign" true
    (Result.is_error (Placement.assign p ~guest:0 ~host:2));
  Alcotest.(check (list int)) "guests_on" [ 0 ] (Placement.guests_on p ~host:1);
  Alcotest.(check (float 1e-9)) "residual cpu" 1900. (Placement.residual_cpu p ~host:1);
  Alcotest.(check (float 1e-9)) "residual mem" 800.
    (Placement.residual p ~host:1).Resources.mem_mb

let test_placement_cpu_not_constraint () =
  let problem, _, _, _ = fixture () in
  let p = Placement.create problem in
  (* Host 0 has 1000 MIPS; 4 guests of 100 MIPS each fit by memory and
     storage, so all assignments succeed even as CPU oversubscribes. *)
  for g = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "guest %d" g)
      true
      (Result.is_ok (Placement.assign p ~guest:g ~host:0))
  done;
  Alcotest.(check bool) "all assigned" true (Placement.all_assigned p);
  Alcotest.(check (float 1e-9)) "cpu residual 600" 600.
    (Placement.residual_cpu p ~host:0)

let test_placement_memory_gates () =
  let problem, _, _, _ = fixture () in
  let p = Placement.create problem in
  (* Five 200 MB guests exhaust a 1000 MB host; the fixture only has
     four, so shrink the host by filling it first. *)
  for g = 0 to 3 do
    ignore (Placement.assign p ~guest:g ~host:0)
  done;
  Alcotest.(check (float 1e-9)) "mem exhausted to 200" 200.
    (Placement.residual p ~host:0).Resources.mem_mb;
  (* Unassign and try a fresh guest flow through migrate. *)
  Alcotest.(check bool) "unassign" true (Result.is_ok (Placement.unassign p ~guest:3));
  Alcotest.(check int) "count" 3 (Placement.n_assigned p)

let test_placement_migrate_rollback () =
  let problem, _, _, _ = fixture () in
  let p = Placement.create problem in
  ignore (Placement.assign p ~guest:0 ~host:0);
  (* Fill host 1's memory so the migration target cannot fit. *)
  ignore (Placement.assign p ~guest:1 ~host:1);
  ignore (Placement.assign p ~guest:2 ~host:1);
  ignore (Placement.assign p ~guest:3 ~host:1);
  (* Host 1 residual memory: 1000 - 600 = 400; guest 0 needs 200 ->
     fits. Make it not fit by migrating onto host 1 twice. *)
  Alcotest.(check bool) "first migrate ok" true
    (Result.is_ok (Placement.migrate p ~guest:0 ~host:1));
  Alcotest.(check (option int)) "moved" (Some 1) (Placement.host_of p ~guest:0);
  (* Now host 1 has 4 guests (800 MB); host 0 is empty. Migrate guest 0
     to host 2, then fill host 0 and fail a migration, checking
     rollback. *)
  Alcotest.(check bool) "migrate to h2" true
    (Result.is_ok (Placement.migrate p ~guest:0 ~host:2));
  Alcotest.(check (option int)) "at h2" (Some 2) (Placement.host_of p ~guest:0)

let test_placement_migrate_unfit_restores () =
  let problem, _, _, _ = fixture () in
  (* Shrink: a special venv where one guest is huge. *)
  let guests =
    [|
      Guest.make ~name:"big" ~demand:(Resources.make ~mips:1. ~mem_mb:900. ~stor_gb:1.);
      Guest.make ~name:"small" ~demand:(Resources.make ~mips:1. ~mem_mb:200. ~stor_gb:1.);
    |]
  in
  let vg = Graph.create ~n:2 () in
  let venv = Venv.create ~guests ~graph:vg in
  let problem2 = Problem.make ~cluster:problem.Problem.cluster ~venv in
  let p = Placement.create problem2 in
  ignore (Placement.assign p ~guest:0 ~host:0);
  ignore (Placement.assign p ~guest:1 ~host:1);
  (* big (900 MB) cannot join host 1 whose residual is 800 MB. *)
  Alcotest.(check bool) "migrate fails" true
    (Result.is_error (Placement.migrate p ~guest:0 ~host:1));
  Alcotest.(check (option int)) "restored to original host" (Some 0)
    (Placement.host_of p ~guest:0);
  Alcotest.(check (float 1e-9)) "residual restored" 100.
    (Placement.residual p ~host:0).Resources.mem_mb

let test_placement_copy_independent () =
  let problem, _, _, _ = fixture () in
  let p = Placement.create problem in
  ignore (Placement.assign p ~guest:0 ~host:0);
  let c = Placement.copy p in
  ignore (Placement.assign c ~guest:1 ~host:1);
  Alcotest.(check int) "original unchanged" 1 (Placement.n_assigned p);
  Alcotest.(check int) "copy advanced" 2 (Placement.n_assigned c)

(* A host's guest set is made on its first assignment, so a copy taken
   while a host is empty must not share the set it gets later. *)
let test_placement_copy_then_fill_empty_host () =
  let problem, _, _, _ = fixture () in
  let p = Placement.create problem in
  ignore (Placement.assign p ~guest:0 ~host:0);
  let c = Placement.copy p in
  Alcotest.(check bool) "assign in copy" true
    (Result.is_ok (Placement.assign c ~guest:1 ~host:2));
  Alcotest.(check (list int)) "original's host 2 still empty" []
    (Placement.guests_on p ~host:2);
  Alcotest.(check int) "original's host 2 count" 0 (Placement.n_guests_on p ~host:2);
  Alcotest.(check (list int)) "copy's host 2" [ 1 ] (Placement.guests_on c ~host:2);
  Alcotest.(check bool) "assign in original" true
    (Result.is_ok (Placement.assign p ~guest:2 ~host:1));
  Alcotest.(check (list int)) "copy's host 1 still empty" []
    (Placement.guests_on c ~host:1);
  Alcotest.(check (list int)) "original's host 0" [ 0 ] (Placement.guests_on p ~host:0);
  Alcotest.(check (list int)) "copy's host 0" [ 0 ] (Placement.guests_on c ~host:0)

let test_placement_switch_rejected () =
  (* Switched topology: switches cannot receive guests. *)
  let hosts =
    Array.init 3 (fun i ->
        Node.host
          ~name:(Printf.sprintf "h%d" i)
          ~capacity:(Resources.make ~mips:1000. ~mem_mb:1000. ~stor_gb:100.))
  in
  let cluster = Hmn_testbed.Topology.switched ~hosts ~ports:8 ~link:Link.gigabit in
  let guests = [| Guest.make ~name:"vm" ~demand:Resources.zero |] in
  let venv = Venv.create ~guests ~graph:(Graph.create ~n:1 ()) in
  let p = Placement.create (Problem.make ~cluster ~venv) in
  Alcotest.(check bool) "switch rejected" true
    (Result.is_error (Placement.assign p ~guest:0 ~host:3));
  Alcotest.(check bool) "fits false on switch" false (Placement.fits p ~guest:0 ~host:3)

(* ---- Objective ---- *)

let test_objective_known_value () =
  let problem, _, _, _ = fixture () in
  let p = Placement.create problem in
  (* Empty placement: residuals are capacities 1000/2000/3000.
     mean 2000, variance (1e6+0+1e6)/3. *)
  Alcotest.(check (float 1e-6)) "empty LBF" (sqrt (2e6 /. 3.))
    (Objective.load_balance_factor p);
  ignore (Placement.assign p ~guest:0 ~host:2);
  ignore (Placement.assign p ~guest:1 ~host:2);
  (* Residuals 1000/2000/2800. *)
  let cpus = Objective.residual_cpus p in
  Alcotest.(check (array (float 1e-9))) "residuals" [| 1000.; 2000.; 2800. |] cpus

let test_objective_after_migration_matches_real () =
  let problem, _, _, _ = fixture () in
  let p = Placement.create problem in
  ignore (Placement.assign p ~guest:0 ~host:0);
  ignore (Placement.assign p ~guest:1 ~host:0);
  ignore (Placement.assign p ~guest:2 ~host:1);
  ignore (Placement.assign p ~guest:3 ~host:2);
  match Objective.load_balance_after_migration p ~guest:0 ~host:2 with
  | None -> Alcotest.fail "expected a prediction"
  | Some predicted ->
    ignore (Placement.migrate p ~guest:0 ~host:2);
    Alcotest.(check (float 1e-9)) "prediction matches reality" predicted
      (Objective.load_balance_factor p)

let test_objective_after_migration_edge_cases () =
  let problem, _, _, _ = fixture () in
  let p = Placement.create problem in
  Alcotest.(check (option (float 0.))) "unassigned guest" None
    (Objective.load_balance_after_migration p ~guest:0 ~host:1);
  ignore (Placement.assign p ~guest:0 ~host:1);
  Alcotest.(check (option (float 0.))) "same host" None
    (Objective.load_balance_after_migration p ~guest:0 ~host:1)

let test_active_hosts_and_oversubscription () =
  let problem, _, _, _ = fixture () in
  let p = Placement.create problem in
  Alcotest.(check int) "no active" 0 (Objective.active_hosts p);
  for g = 0 to 3 do
    ignore (Placement.assign p ~guest:g ~host:0)
  done;
  Alcotest.(check int) "one active" 1 (Objective.active_hosts p)

(* ---- Link_map ---- *)

let test_link_map () =
  let problem, l1, _, _ = fixture () in
  let lm = Link_map.create problem in
  Alcotest.(check int) "none mapped" 0 (Link_map.n_mapped lm);
  let e01 = phys_edge problem 0 1 in
  let path = Path.make ~nodes:[ 0; 1 ] ~edges:[ e01 ] in
  (match Link_map.assign lm ~vlink:l1 path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "one mapped" 1 (Link_map.n_mapped lm);
  Alcotest.(check (float 1e-9)) "bandwidth reserved" 990.
    (Hmn_routing.Residual.available (Link_map.residual lm) e01);
  Alcotest.(check bool) "double assign" true
    (Result.is_error (Link_map.assign lm ~vlink:l1 path));
  (match Link_map.unassign lm ~vlink:l1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (float 1e-9)) "bandwidth released" 1000.
    (Hmn_routing.Residual.available (Link_map.residual lm) e01);
  Alcotest.(check bool) "unassign twice" true
    (Result.is_error (Link_map.unassign lm ~vlink:l1))

(* ---- Constraints (Eqs. 1-9), checked by the Validator on mappings
   built from real placements and link maps ---- *)

(* Builds a fully valid mapping of the fixture: all guests on distinct
   hosts where possible, each virtual link routed on the line. *)
let valid_mapping () =
  let problem, l1, l2, l3 = fixture () in
  let p = Placement.create problem in
  ignore (Placement.assign p ~guest:0 ~host:1);
  ignore (Placement.assign p ~guest:1 ~host:0);
  ignore (Placement.assign p ~guest:2 ~host:2);
  ignore (Placement.assign p ~guest:3 ~host:1);
  let lm = Link_map.create problem in
  let e01 = phys_edge problem 0 1 and e12 = phys_edge problem 1 2 in
  (* vm0@1 - vm1@0 over edge 1-0; vm0@1 - vm2@2 over edge 1-2;
     vm0@1 - vm3@1 intra-host. *)
  (match Link_map.assign lm ~vlink:l1 (Path.make ~nodes:[ 1; 0 ] ~edges:[ e01 ]) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Link_map.assign lm ~vlink:l2 (Path.make ~nodes:[ 1; 2 ] ~edges:[ e12 ]) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Link_map.assign lm ~vlink:l3 (Path.trivial 1) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (problem, Mapping.make ~placement:p ~link_map:lm)

let test_constraints_valid () =
  let _, m = valid_mapping () in
  Alcotest.(check bool) "valid" true (Validator.is_valid m);
  Alcotest.(check int) "no violations" 0
    (List.length (Validator.check m).Validator.violations)

let test_constraints_unassigned () =
  let problem, l1, l2, l3 = fixture () in
  ignore (l1, l2, l3);
  let p = Placement.create problem in
  ignore (Placement.assign p ~guest:0 ~host:0);
  let m = Mapping.make ~placement:p ~link_map:(Link_map.create problem) in
  let vs = (Validator.check m).Validator.violations in
  Alcotest.(check int) "three unassigned" 3
    (List.length
       (List.filter (function Validator.Unassigned_guest _ -> true | _ -> false) vs))

let test_constraints_unmapped_link () =
  let problem, l1, _, _ = fixture () in
  ignore l1;
  let p = Placement.create problem in
  ignore (Placement.assign p ~guest:0 ~host:0);
  ignore (Placement.assign p ~guest:1 ~host:1);
  ignore (Placement.assign p ~guest:2 ~host:0);
  ignore (Placement.assign p ~guest:3 ~host:0);
  let m = Mapping.make ~placement:p ~link_map:(Link_map.create problem) in
  let vs = (Validator.check m).Validator.violations in
  (* vm0@0-vm1@1 is inter-host and unmapped; the other two links are
     intra-host and fine without paths. *)
  Alcotest.(check int) "one unmapped" 1
    (List.length
       (List.filter (function Validator.Unmapped_vlink _ -> true | _ -> false) vs))

let test_constraints_wrong_endpoint () =
  let problem, m = valid_mapping () in
  ignore problem;
  (* Mutate the placement so an existing path no longer starts at the
     right host. *)
  ignore (Placement.migrate m.Mapping.placement ~guest:1 ~host:2);
  let vs = (Validator.check m).Validator.violations in
  Alcotest.(check bool) "endpoint mismatch reported" true
    (List.exists (function Validator.Endpoint_mismatch _ -> true | _ -> false) vs)

let test_constraints_latency_violation () =
  let problem, l1, _, _ = fixture () in
  let p = Placement.create problem in
  ignore (Placement.assign p ~guest:0 ~host:0);
  ignore (Placement.assign p ~guest:1 ~host:2);
  ignore (Placement.assign p ~guest:2 ~host:0);
  ignore (Placement.assign p ~guest:3 ~host:0);
  (* Replace vlink l1's latency bound with something tiny by building a
     venv variant is heavy; instead map it over a path whose latency
     (10 ms) is fine but check the validator's arithmetic through a
     tight bound link: build a long path 0-1-2 for a 40 ms bound — ok;
     so instead lower the bound by constructing a new fixture with a
     5 ms bound. *)
  ignore (p, l1);
  let guests =
    Array.init 2 (fun i ->
        Guest.make ~name:(Printf.sprintf "vm%d" i)
          ~demand:(Resources.make ~mips:1. ~mem_mb:1. ~stor_gb:1.))
  in
  let vg = Graph.create ~n:2 () in
  let tight = Graph.add_edge vg 0 1 (Vlink.make ~bandwidth_mbps:1. ~latency_ms:5.) in
  let venv = Venv.create ~guests ~graph:vg in
  let problem2 = Problem.make ~cluster:problem.Problem.cluster ~venv in
  let p2 = Placement.create problem2 in
  ignore (Placement.assign p2 ~guest:0 ~host:0);
  ignore (Placement.assign p2 ~guest:1 ~host:2);
  let lm = Link_map.create problem2 in
  let e01 = phys_edge problem2 0 1 and e12 = phys_edge problem2 1 2 in
  (match
     Link_map.assign lm ~vlink:tight (Path.make ~nodes:[ 0; 1; 2 ] ~edges:[ e01; e12 ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let m = Mapping.make ~placement:p2 ~link_map:lm in
  let vs = (Validator.check m).Validator.violations in
  Alcotest.(check bool) "latency violation (10 ms > 5 ms bound)" true
    (List.exists (function Validator.Latency_exceeded _ -> true | _ -> false) vs)

(* ---- Mapping metrics & report ---- *)

let test_mapping_metrics () =
  let _, m = valid_mapping () in
  Alcotest.(check int) "total hops" 2 (Mapping.total_hops m);
  Alcotest.(check (float 1e-9)) "mean latency (two 1-hop paths)" 5.
    (Mapping.mean_path_latency m);
  Alcotest.(check bool) "objective non-negative" true (Mapping.objective m >= 0.)

let test_mapping_problem_mismatch () =
  let problem1, _, _, _ = fixture () in
  let problem2, _, _, _ = fixture () in
  let p = Placement.create problem1 in
  let lm = Link_map.create problem2 in
  Alcotest.check_raises "different problems"
    (Invalid_argument "Mapping.make: placement and link map disagree on the problem")
    (fun () -> ignore (Mapping.make ~placement:p ~link_map:lm))

let test_report_renders () =
  let _, m = valid_mapping () in
  let placement_table = Hmn_mapping.Report.placement_table m in
  Alcotest.(check bool) "placement table mentions h0" true
    (Option.is_some
       (Seq.find_index (fun _ -> true)
          (Seq.filter (String.equal "h0")
             (Seq.map (fun s -> String.trim (String.sub s 0 (min 3 (String.length s))))
                (List.to_seq (String.split_on_char '\n' placement_table))))));
  let link_table = Hmn_mapping.Report.link_table m in
  Alcotest.(check bool) "link table non-empty" true (String.length link_table > 0);
  let summary = Hmn_mapping.Report.summary m in
  Alcotest.(check bool) "summary mentions objective" true
    (String.length summary > 0);
  let hot = Hmn_mapping.Report.hot_links ~top:2 m in
  (* Header + rule + 2 rows + trailing newline. *)
  Alcotest.(check int) "hot links truncated to top 2" 5
    (List.length (String.split_on_char '\n' hot))

(* ---- property: random valid operations keep internal accounting
   consistent with a from-scratch recomputation ---- *)

let prop_placement_accounting_consistent =
  QCheck.Test.make
    ~name:"placement residuals equal capacity minus the sum of resident demands"
    ~count:100 QCheck.small_nat
    (fun seed ->
      let rng = Hmn_rng.Rng.create (seed + 500) in
      let problem, _, _, _ = fixture () in
      let p = Placement.create problem in
      (* Random assign/unassign/migrate churn. *)
      for _ = 1 to 60 do
        let guest = Hmn_rng.Rng.int rng ~bound:4 in
        let host = Hmn_rng.Rng.int rng ~bound:3 in
        match Hmn_rng.Rng.int rng ~bound:3 with
        | 0 -> ignore (Placement.assign p ~guest ~host)
        | 1 -> ignore (Placement.unassign p ~guest)
        | _ -> ignore (Placement.migrate p ~guest ~host)
      done;
      let ok = ref true in
      Array.iter
        (fun host ->
          let expected =
            List.fold_left
              (fun acc g ->
                Resources.add acc (Venv.demand problem.Problem.venv g))
              Resources.zero
              (Placement.guests_on p ~host)
          in
          let recomputed =
            Resources.sub (Cluster.capacity problem.Problem.cluster host) expected
          in
          if not (Resources.equal ~eps:1e-9 recomputed (Placement.residual p ~host))
          then ok := false)
        (Cluster.host_ids problem.Problem.cluster);
      !ok)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "hmn_mapping"
    [
      ( "problem",
        [
          Alcotest.test_case "basics" `Quick test_problem_basics;
          Alcotest.test_case "infeasibility screen" `Quick
            test_problem_infeasible_screen;
        ] );
      ( "placement",
        [
          Alcotest.test_case "assign" `Quick test_placement_assign;
          Alcotest.test_case "CPU is not a constraint" `Quick
            test_placement_cpu_not_constraint;
          Alcotest.test_case "memory gates" `Quick test_placement_memory_gates;
          Alcotest.test_case "migrate" `Quick test_placement_migrate_rollback;
          Alcotest.test_case "migrate rollback" `Quick
            test_placement_migrate_unfit_restores;
          Alcotest.test_case "copy" `Quick test_placement_copy_independent;
          Alcotest.test_case "copy, then fill an empty host" `Quick
            test_placement_copy_then_fill_empty_host;
          Alcotest.test_case "switches rejected" `Quick test_placement_switch_rejected;
        ] );
      ( "objective",
        [
          Alcotest.test_case "known value" `Quick test_objective_known_value;
          Alcotest.test_case "migration prediction" `Quick
            test_objective_after_migration_matches_real;
          Alcotest.test_case "prediction edge cases" `Quick
            test_objective_after_migration_edge_cases;
          Alcotest.test_case "active hosts & oversubscription" `Quick
            test_active_hosts_and_oversubscription;
        ] );
      ("link_map", [ Alcotest.test_case "assign/unassign" `Quick test_link_map ]);
      ( "constraints",
        [
          Alcotest.test_case "valid mapping" `Quick test_constraints_valid;
          Alcotest.test_case "unassigned guests" `Quick test_constraints_unassigned;
          Alcotest.test_case "unmapped link" `Quick test_constraints_unmapped_link;
          Alcotest.test_case "wrong endpoint" `Quick test_constraints_wrong_endpoint;
          Alcotest.test_case "latency violation" `Quick
            test_constraints_latency_violation;
        ] );
      ( "mapping & report",
        [
          Alcotest.test_case "metrics" `Quick test_mapping_metrics;
          Alcotest.test_case "problem mismatch" `Quick test_mapping_problem_mismatch;
          Alcotest.test_case "report renders" `Quick test_report_renders;
        ] );
      ("properties", [ q prop_placement_accounting_consistent ]);
    ]
