(* Tests for hmn_core: the three HMN stages, the assembled heuristic,
   the R/RA/HS baselines and the bin-packing extensions. The overall
   invariant — every mapping any heuristic returns satisfies
   Eqs. (1)-(9) — is checked both on hand-built fixtures and as a
   property over random instances. *)

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
module Objective = Hmn_mapping.Objective
module Validator = Hmn_validate.Validator
module Mapper = Hmn_core.Mapper
module Hosting = Hmn_core.Hosting
module Migration = Hmn_core.Migration
module Networking = Hmn_core.Networking
module Hmn = Hmn_core.Hmn
module Baselines = Hmn_core.Baselines
module Packing = Hmn_core.Packing
module Registry = Hmn_core.Registry

let host ?(mips = 2000.) ?(mem = 2048.) ?(stor = 1000.) i =
  Node.host
    ~name:(Printf.sprintf "h%d" i)
    ~capacity:(Resources.make ~mips ~mem_mb:mem ~stor_gb:stor)

let guest ?(mips = 100.) ?(mem = 200.) ?(stor = 10.) name =
  Guest.make ~name ~demand:(Resources.make ~mips ~mem_mb:mem ~stor_gb:stor)

let line_cluster n = Hmn_testbed.Topology.line ~hosts:(Array.init n (host ?mips:None ?mem:None ?stor:None)) ~link:Link.gigabit

(* Random Table-1-style instance used by integration properties. *)
let random_problem ~seed ~n_guests =
  let rng = Hmn_rng.Rng.create seed in
  let cluster =
    Hmn_testbed.Cluster_gen.torus_cluster ~vmm:Hmn_testbed.Vmm.none ~rows:4 ~cols:5
      ~rng ()
  in
  let venv =
    Hmn_vnet.Venv_gen.generate
      ~scale_to_fit:(cluster, 0.8)
      ~profile:Hmn_vnet.Workload.high_level ~n:n_guests ~density:0.04 ~rng ()
  in
  Problem.make ~cluster ~venv

(* ---- Hosting ---- *)

let test_hosting_affinity_colocates () =
  (* Two guests joined by a fat link and roomy hosts: both land on the
     same host. *)
  let cluster = line_cluster 3 in
  let guests = [| guest "a"; guest "b" |] in
  let vg = Graph.create ~n:2 () in
  ignore (Graph.add_edge vg 0 1 (Vlink.make ~bandwidth_mbps:50. ~latency_ms:40.));
  let problem = Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:vg) in
  match Hosting.run problem with
  | Error f -> Alcotest.fail f.Mapper.reason
  | Ok p ->
    Alcotest.(check bool) "all assigned" true (Placement.all_assigned p);
    Alcotest.(check bool) "co-located" true
      (Placement.host_of p ~guest:0 = Placement.host_of p ~guest:1)

let test_hosting_splits_when_too_big () =
  (* Each guest needs 1500 MB; hosts have 2048 MB: the pair cannot
     share, so Hosting must split them across hosts. *)
  let cluster = line_cluster 3 in
  let guests = [| guest ~mem:1500. "a"; guest ~mem:1500. "b" |] in
  let vg = Graph.create ~n:2 () in
  ignore (Graph.add_edge vg 0 1 (Vlink.make ~bandwidth_mbps:50. ~latency_ms:40.));
  let problem = Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:vg) in
  match Hosting.run problem with
  | Error f -> Alcotest.fail f.Mapper.reason
  | Ok p ->
    Alcotest.(check bool) "split" true
      (Placement.host_of p ~guest:0 <> Placement.host_of p ~guest:1)

let test_hosting_processes_links_by_bandwidth () =
  Alcotest.(check bool) "sorted_vlinks descending" true
    (let problem = random_problem ~seed:1 ~n_guests:40 in
     let order = Hosting.sorted_vlinks problem in
     let venv = problem.Problem.venv in
     let ok = ref true in
     for i = 0 to Array.length order - 2 do
       let bw e = (Venv.vlink venv e).Vlink.bandwidth_mbps in
       if bw order.(i) < bw order.(i + 1) then ok := false
     done;
     !ok)

let test_hosting_isolated_guests () =
  (* Guests with no virtual links still get placed. *)
  let cluster = line_cluster 2 in
  let guests = [| guest "a"; guest "b"; guest "c" |] in
  let vg = Graph.create ~n:3 () in
  ignore (Graph.add_edge vg 0 1 (Vlink.make ~bandwidth_mbps:1. ~latency_ms:40.));
  let problem = Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:vg) in
  match Hosting.run problem with
  | Error f -> Alcotest.fail f.Mapper.reason
  | Ok p -> Alcotest.(check bool) "all assigned" true (Placement.all_assigned p)

let test_hosting_fails_when_impossible () =
  let cluster = line_cluster 2 in
  (* One guest larger than any host's memory. *)
  let guests = [| guest ~mem:5000. "huge" |] in
  let problem =
    Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:(Graph.create ~n:1 ()))
  in
  match Hosting.run problem with
  | Ok _ -> Alcotest.fail "expected hosting failure"
  | Error f -> Alcotest.(check string) "stage" "hosting" f.Mapper.stage

let test_hosting_prefers_cpu_available_host () =
  (* With no affinity pressure, the first pair goes to the most
     CPU-available host. *)
  let hosts = [| host ~mips:500. 0; host ~mips:3000. 1; host ~mips:1000. 2 |] in
  let cluster = Hmn_testbed.Topology.line ~hosts ~link:Link.gigabit in
  let guests = [| guest "a"; guest "b" |] in
  let vg = Graph.create ~n:2 () in
  ignore (Graph.add_edge vg 0 1 (Vlink.make ~bandwidth_mbps:1. ~latency_ms:40.));
  let problem = Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:vg) in
  match Hosting.run problem with
  | Error f -> Alcotest.fail f.Mapper.reason
  | Ok p ->
    Alcotest.(check (option int)) "fat host chosen" (Some 1)
      (Placement.host_of p ~guest:0)

let test_hosting_pair_rule_matches_assignment () =
  (* The pair's memory sums to exactly the top host's 4271.7 MB, but
     4271.7 - 2700 = 1571.6999999999998 < 1571.7: once the first guest
     is on the top host, the second no longer fits there. The pair rule
     asks what assignment will ask, so the pair splits and both guests
     place. *)
  let hosts = [| host ~mem:4271.7 0; host ~mem:10000. 1 |] in
  let cluster = Hmn_testbed.Topology.line ~hosts ~link:Link.gigabit in
  let guests = [| guest ~mem:2700. "a"; guest ~mem:1571.7 "b" |] in
  let vg = Graph.create ~n:2 () in
  ignore (Graph.add_edge vg 0 1 (Vlink.make ~bandwidth_mbps:1. ~latency_ms:40.));
  let problem = Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:vg) in
  (match Hosting.run problem with
  | Error f -> Alcotest.fail f.Mapper.reason
  | Ok p ->
    Alcotest.(check (option int)) "guest 0" (Some 0) (Placement.host_of p ~guest:0);
    Alcotest.(check (option int)) "guest 1" (Some 1) (Placement.host_of p ~guest:1));
  match (Hmn.run problem).Mapper.result with
  | Error f -> Alcotest.fail f.Mapper.reason
  | Ok _ -> ()

(* The flat stage against the retained copy that re-sorts the whole
   host list after every assignment ([Reference_hosting]): the same
   Ok/Error, the same failing guest, the same host for every guest and
   bitwise-equal residuals on every host (each residual is a chain of
   [Resources.sub] calls, and Migration reads its bits).
   Hosts and guests draw CPU from small menus and a third of the
   guests need no CPU at all, so residuals tie and assignments often
   leave a host's key unchanged; memory is tight enough that [fits]
   rejects hosts mid-scan and some instances fail. *)
let hosting_instance ~rng =
  let pick xs = xs.(Hmn_rng.Rng.int rng ~bound:(Array.length xs)) in
  let n_hosts = Hmn_rng.Rng.int_in rng ~lo:1 ~hi:10 in
  let hosts =
    Array.init n_hosts (fun i ->
        host ~mips:(pick [| 1000.; 2000.; 2000.; 3000. |])
          ~mem:(pick [| 600.; 1200.; 4096. |]) i)
  in
  let n_guests = Hmn_rng.Rng.int_in rng ~lo:1 ~hi:40 in
  let guests =
    Array.init n_guests (fun i ->
        guest
          ~mips:(pick [| 0.; 0.; 0.; 100.; 200.; 250.; 500.; 333.3 |])
          ~mem:(pick [| 100.; 300.; 300.; 500. |])
          (Printf.sprintf "g%d" i))
  in
  let vg = Graph.create ~n:n_guests () in
  for _ = 1 to n_guests + (n_guests / 2) do
    let a = Hmn_rng.Rng.int rng ~bound:n_guests
    and b = Hmn_rng.Rng.int rng ~bound:n_guests in
    if a <> b then
      ignore
        (Graph.add_edge vg a b
           (Vlink.make ~bandwidth_mbps:(pick [| 1.; 5.; 5.; 20. |]) ~latency_ms:40.))
  done;
  let cluster = Hmn_testbed.Topology.line ~hosts ~link:Link.gigabit in
  Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:vg)

let residual_bits p =
  Array.map
    (fun host ->
      let r = Placement.residual p ~host in
      List.map Int64.bits_of_float
        [ r.Resources.mips; r.Resources.mem_mb; r.Resources.stor_gb ])
    (Cluster.host_ids (Placement.problem p).Problem.cluster)

let same_hosting r0 r1 =
  match (r0, r1) with
  | Ok p0, Ok p1 ->
    List.for_all
      (fun guest -> Placement.host_of p0 ~guest = Placement.host_of p1 ~guest)
      (List.init (Venv.n_guests (Placement.problem p0).Problem.venv) Fun.id)
    && residual_bits p0 = residual_bits p1
  | Error f0, Error f1 ->
    f0.Mapper.stage = f1.Mapper.stage
    && f0.Mapper.reason = f1.Mapper.reason
    && f0.Mapper.detail = f1.Mapper.detail
  | Ok _, Error _ | Error _, Ok _ -> false

let prop_hosting_matches_reference =
  QCheck.Test.make ~name:"Hosting re-sifting one host matches the full re-sort"
    ~count:1000 QCheck.(int_bound 999_999)
    (fun seed ->
      let problem = hosting_instance ~rng:(Hmn_rng.Rng.create (seed + 4200)) in
      same_hosting (Reference_hosting.run problem) (Hosting.run problem))

(* ---- Migration ---- *)

let test_migration_improves_or_keeps_lbf () =
  let problem = random_problem ~seed:2 ~n_guests:60 in
  match Hosting.run problem with
  | Error f -> Alcotest.fail f.Mapper.reason
  | Ok p ->
    let stats = Migration.run p in
    Alcotest.(check bool) "LBF non-increasing" true
      (stats.Migration.lbf_after <= stats.Migration.lbf_before +. 1e-9);
    Alcotest.(check (float 1e-9)) "lbf_after is current" stats.Migration.lbf_after
      (Objective.load_balance_factor p)

let test_migration_balances_obvious_imbalance () =
  (* All guests crammed on one host of three equal hosts: migration
     must spread them. *)
  let cluster = line_cluster 3 in
  let guests = Array.init 6 (fun i -> guest (Printf.sprintf "g%d" i)) in
  let vg = Graph.create ~n:6 () in
  let problem = Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:vg) in
  let p = Placement.create problem in
  for g = 0 to 5 do
    ignore (Placement.assign p ~guest:g ~host:0)
  done;
  let stats = Migration.run p in
  Alcotest.(check bool) "moved some" true (stats.Migration.moves > 0);
  Alcotest.(check bool) "strictly better" true
    (stats.Migration.lbf_after < stats.Migration.lbf_before);
  (* Perfect balance is achievable: 2 guests per host. *)
  Alcotest.(check (float 1e-6)) "perfectly balanced" 0. stats.Migration.lbf_after

let test_migration_victim_choice () =
  (* The victim is the guest with the least bandwidth to co-located
     guests. *)
  let cluster = line_cluster 2 in
  let guests = [| guest "a"; guest "b"; guest "c" |] in
  let vg = Graph.create ~n:3 () in
  ignore (Graph.add_edge vg 0 1 (Vlink.make ~bandwidth_mbps:100. ~latency_ms:40.));
  ignore (Graph.add_edge vg 1 2 (Vlink.make ~bandwidth_mbps:1. ~latency_ms:40.));
  let problem = Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:vg) in
  let p = Placement.create problem in
  for g = 0 to 2 do
    ignore (Placement.assign p ~guest:g ~host:0)
  done;
  Alcotest.(check (float 1e-9)) "a colocated bw" 100.
    (Migration.colocated_bandwidth p ~guest:0);
  Alcotest.(check (float 1e-9)) "b colocated bw" 101.
    (Migration.colocated_bandwidth p ~guest:1);
  Alcotest.(check (float 1e-9)) "c colocated bw" 1.
    (Migration.colocated_bandwidth p ~guest:2);
  ignore (Migration.run p);
  (* Guest c (cheapest to move) must be the one that left host 0. *)
  Alcotest.(check (option int)) "c moved" (Some 1) (Placement.host_of p ~guest:2);
  Alcotest.(check (option int)) "a stayed" (Some 0) (Placement.host_of p ~guest:0)

let test_migration_max_moves_cap () =
  let problem = random_problem ~seed:3 ~n_guests:60 in
  match Hosting.run problem with
  | Error f -> Alcotest.fail f.Mapper.reason
  | Ok p ->
    let stats = Migration.run ~max_moves:1 p in
    Alcotest.(check bool) "capped" true (stats.Migration.moves <= 1)

(* ---- Networking ---- *)

let test_networking_routes_all () =
  let problem = random_problem ~seed:4 ~n_guests:50 in
  match Hosting.run problem with
  | Error f -> Alcotest.fail f.Mapper.reason
  | Ok p -> (
    match Networking.run p with
    | Error f -> Alcotest.fail f.Mapper.reason
    | Ok (lm, stats) ->
      Alcotest.(check bool) "all mapped" true (Hmn_mapping.Link_map.all_mapped lm);
      Alcotest.(check int) "routed + intra = links"
        (Venv.n_vlinks problem.Problem.venv)
        (stats.Networking.routed + stats.Networking.intra_host))

let test_networking_intra_host_free () =
  (* Both guests on one host: no bandwidth may be consumed anywhere. *)
  let cluster = line_cluster 2 in
  let guests = [| guest "a"; guest "b" |] in
  let vg = Graph.create ~n:2 () in
  ignore (Graph.add_edge vg 0 1 (Vlink.make ~bandwidth_mbps:500. ~latency_ms:40.));
  let problem = Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:vg) in
  let p = Placement.create problem in
  ignore (Placement.assign p ~guest:0 ~host:0);
  ignore (Placement.assign p ~guest:1 ~host:0);
  match Networking.run p with
  | Error f -> Alcotest.fail f.Mapper.reason
  | Ok (lm, stats) ->
    Alcotest.(check int) "intra count" 1 stats.Networking.intra_host;
    let residual = Hmn_mapping.Link_map.residual lm in
    Alcotest.(check (float 1e-9)) "no bandwidth used" 1000.
      (Hmn_routing.Residual.available residual 0)

let test_networking_fails_on_infeasible_demand () =
  (* A virtual link demanding more than the physical capacity between
     two separated guests. *)
  let cluster = line_cluster 2 in
  let guests = [| guest "a"; guest "b" |] in
  let vg = Graph.create ~n:2 () in
  ignore (Graph.add_edge vg 0 1 (Vlink.make ~bandwidth_mbps:2000. ~latency_ms:40.));
  let problem = Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:vg) in
  let p = Placement.create problem in
  ignore (Placement.assign p ~guest:0 ~host:0);
  ignore (Placement.assign p ~guest:1 ~host:1);
  match Networking.run p with
  | Ok _ -> Alcotest.fail "expected networking failure"
  | Error f -> Alcotest.(check string) "stage" "networking" f.Mapper.stage

let test_networking_incomplete_placement_rejected () =
  let problem = random_problem ~seed:5 ~n_guests:10 in
  let p = Placement.create problem in
  Alcotest.check_raises "incomplete"
    (Invalid_argument "Networking.run: placement is incomplete") (fun () ->
      ignore (Networking.run p))

(* ---- HMN end-to-end ---- *)

let test_hmn_end_to_end_valid () =
  let problem = random_problem ~seed:6 ~n_guests:80 in
  let outcome, report = Hmn.run_detailed problem in
  match outcome.Mapper.result with
  | Error f -> Alcotest.fail f.Mapper.reason
  | Ok mapping ->
    Alcotest.(check int) "no violations" 0
      (List.length (Validator.check mapping).Validator.violations);
    Alcotest.(check bool) "migration ran" true
      (report.Hmn.migration_stats <> None);
    Alcotest.(check bool) "networking ran" true
      (report.Hmn.networking_stats <> None);
    Alcotest.(check (list string)) "stage times recorded"
      [ "hosting"; "migration"; "networking"; "networking/precompute" ]
      (List.map fst outcome.Mapper.stage_seconds)

let test_hmn_beats_or_ties_no_migration () =
  (* The Migration stage can only improve the placement objective. *)
  let problem = random_problem ~seed:7 ~n_guests:80 in
  match ((Hmn.run problem).Mapper.result, (Hmn.without_migration problem).Mapper.result)
  with
  | Ok full, Ok ablated ->
    Alcotest.(check bool) "HMN <= HN" true
      (Hmn_mapping.Mapping.objective full
      <= Hmn_mapping.Mapping.objective ablated +. 1e-9)
  | _ -> Alcotest.fail "both variants should succeed on this instance"

let test_hmn_deterministic () =
  let problem = random_problem ~seed:8 ~n_guests:50 in
  match ((Hmn.run problem).Mapper.result, (Hmn.run problem).Mapper.result) with
  | Ok a, Ok b ->
    Alcotest.(check (float 1e-12)) "same objective"
      (Hmn_mapping.Mapping.objective a)
      (Hmn_mapping.Mapping.objective b)
  | _ -> Alcotest.fail "expected success"

(* ---- Baselines ---- *)

let run_mapper mapper ~seed problem =
  mapper.Mapper.run ~rng:(Hmn_rng.Rng.create seed) problem

let test_baselines_produce_valid_mappings () =
  let problem = random_problem ~seed:9 ~n_guests:60 in
  List.iter
    (fun mapper ->
      match (run_mapper mapper ~seed:1 problem).Mapper.result with
      | Error f ->
        Alcotest.failf "%s failed: %s" mapper.Mapper.name f.Mapper.reason
      | Ok mapping ->
        Alcotest.(check int)
          (mapper.Mapper.name ^ " violations")
          0
          (List.length (Validator.check mapping).Validator.violations))
    (Registry.paper ~max_tries:100 ())

let test_random_mapper_counts_tries () =
  let problem = random_problem ~seed:10 ~n_guests:30 in
  let outcome = run_mapper (Baselines.random ~max_tries:100 ()) ~seed:2 problem in
  Alcotest.(check bool) "tries >= 1" true (outcome.Mapper.tries >= 1);
  match outcome.Mapper.result with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "easy instance should map"

let test_random_mapper_try_budget_exhausts () =
  (* An unmappable instance: guest larger than every host. *)
  let cluster = line_cluster 2 in
  let guests = [| guest ~mem:5000. "huge" |] in
  let problem =
    Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:(Graph.create ~n:1 ()))
  in
  let outcome = run_mapper (Baselines.random ~max_tries:7 ()) ~seed:3 problem in
  Alcotest.(check int) "tries = budget" 7 outcome.Mapper.tries;
  Alcotest.(check bool) "failed" true (Result.is_error outcome.Mapper.result)

let test_hs_does_not_retry_hosting () =
  (* HS fails immediately (tries = 1) when Hosting fails. *)
  let cluster = line_cluster 2 in
  let guests = [| guest ~mem:5000. "huge" |] in
  let problem =
    Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:(Graph.create ~n:1 ()))
  in
  let outcome = run_mapper (Baselines.hosting_search ~max_tries:50 ()) ~seed:4 problem in
  Alcotest.(check int) "single try" 1 outcome.Mapper.tries;
  match outcome.Mapper.result with
  | Error f -> Alcotest.(check string) "hosting stage" "hosting" f.Mapper.stage
  | Ok _ -> Alcotest.fail "expected failure"

let test_last_failure_kept_on_success () =
  (* Two default hosts (2048 MB), one big guest (1500) and two small
     ones (800): whenever R draws the smalls first and spreads them
     across both hosts, the big guest fits nowhere and the try is
     retried — for such a seed a failed try precedes the eventual
     success, and the outcome must still carry that last failed try. *)
  let cluster = line_cluster 2 in
  let guests =
    [| guest ~mem:1500. "big"; guest ~mem:800. "s1"; guest ~mem:800. "s2" |]
  in
  let problem =
    Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:(Graph.create ~n:3 ()))
  in
  let mapper = Baselines.random ~max_tries:50 () in
  let rec find_retrying seed =
    if seed > 200 then
      Alcotest.fail "no seed produced a success after a failed try"
    else
      let outcome = run_mapper mapper ~seed problem in
      if Result.is_ok outcome.Mapper.result && outcome.Mapper.tries > 1 then outcome
      else find_retrying (seed + 1)
  in
  let outcome = find_retrying 0 in
  match outcome.Mapper.last_failure with
  | None -> Alcotest.fail "last_failure dropped on eventual success"
  | Some f ->
    Alcotest.(check string) "failed stage recorded" "random-placement" f.Mapper.stage

let test_last_failure_absent_on_clean_success () =
  (* A single roomy host cannot fail: first try succeeds and no failure
     is recorded. *)
  let problem =
    Problem.make ~cluster:(line_cluster 1)
      ~venv:(Venv.create ~guests:[| guest "only" |] ~graph:(Graph.create ~n:1 ()))
  in
  let outcome = run_mapper (Baselines.random ~max_tries:10 ()) ~seed:5 problem in
  Alcotest.(check bool) "succeeded" true (Result.is_ok outcome.Mapper.result);
  Alcotest.(check int) "first try" 1 outcome.Mapper.tries;
  Alcotest.(check bool) "no failure recorded" true
    (outcome.Mapper.last_failure = None)

let test_last_failure_on_exhaustion () =
  (* When the budget runs out, last_failure and the Error payload are
     the same failure. *)
  let cluster = line_cluster 2 in
  let guests = [| guest ~mem:5000. "huge" |] in
  let problem =
    Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:(Graph.create ~n:1 ()))
  in
  let outcome = run_mapper (Baselines.random ~max_tries:7 ()) ~seed:3 problem in
  match (outcome.Mapper.result, outcome.Mapper.last_failure) with
  | Error f, Some lf ->
    Alcotest.(check string) "same stage" f.Mapper.stage lf.Mapper.stage;
    Alcotest.(check string) "same reason" f.Mapper.reason lf.Mapper.reason
  | Error _, None -> Alcotest.fail "last_failure missing on exhaustion"
  | Ok _, _ -> Alcotest.fail "unmappable instance mapped"

let test_dfs_route_all_valid () =
  let problem = random_problem ~seed:11 ~n_guests:40 in
  match Hosting.run problem with
  | Error f -> Alcotest.fail f.Mapper.reason
  | Ok p -> (
    match Baselines.dfs_route_all ~rng:(Hmn_rng.Rng.create 5) p with
    | Error f -> Alcotest.fail f.Mapper.reason
    | Ok lm ->
      let mapping = Hmn_mapping.Mapping.make ~placement:p ~link_map:lm in
      Alcotest.(check int) "valid" 0
        (List.length (Validator.check mapping).Validator.violations))

(* ---- Packing ---- *)

let test_packing_strategies_valid () =
  let problem = random_problem ~seed:12 ~n_guests:60 in
  List.iter
    (fun strategy ->
      match Packing.place strategy problem with
      | Error f -> Alcotest.failf "%s: %s" (Packing.strategy_name strategy) f.Mapper.reason
      | Ok p ->
        Alcotest.(check bool)
          (Packing.strategy_name strategy ^ " complete")
          true (Placement.all_assigned p))
    [ Packing.First_fit; Packing.Best_fit; Packing.Worst_fit; Packing.Consolidate ]

let test_consolidate_uses_fewer_hosts () =
  let problem = random_problem ~seed:13 ~n_guests:40 in
  match (Packing.place Packing.Consolidate problem, Packing.place Packing.Worst_fit problem)
  with
  | Ok cons, Ok worst ->
    Alcotest.(check bool) "consolidation packs tighter" true
      (Objective.active_hosts cons <= Objective.active_hosts worst)
  | _ -> Alcotest.fail "placements should succeed"

let test_worst_fit_balances_better () =
  let problem = random_problem ~seed:14 ~n_guests:40 in
  match (Packing.place Packing.Worst_fit problem, Packing.place Packing.Consolidate problem)
  with
  | Ok worst, Ok cons ->
    Alcotest.(check bool) "WFD at least as balanced" true
      (Objective.load_balance_factor worst
      <= Objective.load_balance_factor cons +. 1e-9)
  | _ -> Alcotest.fail "placements should succeed"

(* The guest order is by CPU, descending: "big" is placed first, then
   "huge" fits no host and must be the guest the failure names. *)
let test_packing_failure_names_guest () =
  let guests =
    [| guest ~mips:200. ~mem:5000. "huge"; guest ~mips:300. "big"; guest "small" |]
  in
  let problem =
    Problem.make ~cluster:(line_cluster 2)
      ~venv:(Venv.create ~guests ~graph:(Graph.create ~n:3 ()))
  in
  List.iter
    (fun strategy ->
      let name = Packing.strategy_name strategy in
      match (run_mapper (Packing.to_mapper strategy) ~seed:1 problem).Mapper.result with
      | Ok _ -> Alcotest.failf "%s: expected a failure" name
      | Error f ->
        Alcotest.(check bool) (name ^ " names guest 0") true
          (f.Mapper.detail = Some (Mapper.Unplaceable_guest { guest = 0 })))
    [ Packing.First_fit; Packing.Best_fit; Packing.Worst_fit; Packing.Consolidate ]

(* ---- Exhaustive (OPT oracle) ---- *)

(* Small instance where optimal balance is computable by hand: three
   equal 1000-MIPS hosts, six equal 100-MIPS guests, no links. Perfect
   balance (2 guests per host) has LBF 0. *)
let test_exhaustive_known_optimum () =
  let cluster = line_cluster 3 in
  let hosts_mips = 2000. in
  ignore hosts_mips;
  let guests = Array.init 6 (fun i -> guest (Printf.sprintf "g%d" i)) in
  let problem =
    Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:(Graph.create ~n:6 ()))
  in
  match Hmn_core.Exhaustive.optimal_placement problem with
  | Error f -> Alcotest.fail f.Mapper.reason
  | Ok (placement, lbf) ->
    Alcotest.(check (float 1e-9)) "perfect balance" 0. lbf;
    Alcotest.(check (float 1e-9)) "lbf consistent" lbf
      (Objective.load_balance_factor placement)

let test_exhaustive_rejects_large () =
  let problem = random_problem ~seed:30 ~n_guests:50 in
  match Hmn_core.Exhaustive.optimal_placement problem with
  | Ok _ -> Alcotest.fail "expected a size rejection"
  | Error f -> Alcotest.(check string) "stage" "exhaustive" f.Mapper.stage

let test_exhaustive_infeasible () =
  let cluster = line_cluster 2 in
  let guests = [| guest ~mem:5000. "huge" |] in
  let problem =
    Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:(Graph.create ~n:1 ()))
  in
  match Hmn_core.Exhaustive.optimal_placement problem with
  | Ok _ -> Alcotest.fail "expected infeasibility"
  | Error f ->
    Alcotest.(check string) "reason" "no feasible placement exists" f.Mapper.reason

let prop_hmn_within_factor_of_opt =
  (* On tiny instances, HMN's objective is never better than OPT and
     the OPT mapping is valid. *)
  QCheck.Test.make ~name:"OPT lower-bounds HMN on tiny instances" ~count:25
    QCheck.small_nat
    (fun seed ->
      let rng = Hmn_rng.Rng.create (seed + 9100) in
      let hosts =
        Array.init 3 (fun i ->
            host ~mips:(1000. +. (2000. *. Hmn_rng.Rng.float rng)) i)
      in
      let cluster = Hmn_testbed.Topology.ring ~hosts ~link:Hmn_testbed.Link.gigabit in
      let venv =
        Hmn_vnet.Venv_gen.generate ~profile:Hmn_vnet.Workload.high_level ~n:6
          ~density:0.3 ~rng ()
      in
      let problem = Problem.make ~cluster ~venv in
      match
        ( Hmn_core.Exhaustive.optimal_placement problem,
          (Hmn.run problem).Mapper.result )
      with
      | Error _, _ -> true
      | Ok (_, opt_lbf), Ok hmn_mapping ->
        Hmn_mapping.Mapping.objective hmn_mapping >= opt_lbf -. 1e-9
      | Ok _, Error _ -> true)

(* ---- Incremental ---- *)

let live_handle ?(seed = 31) ?(n_guests = 60) () =
  let problem = random_problem ~seed ~n_guests in
  match (Hmn.run problem).Mapper.result with
  | Error f -> Alcotest.fail f.Mapper.reason
  | Ok mapping -> Hmn_online.Incremental.create mapping

let test_incremental_move_guest () =
  let t = live_handle () in
  let mapping = Hmn_online.Incremental.mapping t in
  let placement = mapping.Hmn_mapping.Mapping.placement in
  let cluster = (Hmn_mapping.Mapping.problem mapping).Problem.cluster in
  let guest = 0 in
  let origin = Placement.host_of_exn placement ~guest in
  (* Pick any other host that fits the guest. *)
  let target =
    Array.to_list (Cluster.host_ids cluster)
    |> List.find (fun h -> h <> origin && Placement.fits placement ~guest ~host:h)
  in
  (match Hmn_online.Incremental.move_guest t ~guest ~host:target with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (option int)) "moved" (Some target) (Placement.host_of placement ~guest);
  Alcotest.(check int) "mapping still valid" 0
    (List.length (Validator.check mapping).Validator.violations)

let test_incremental_move_rollback () =
  let t = live_handle () in
  let mapping = Hmn_online.Incremental.mapping t in
  let placement = mapping.Hmn_mapping.Mapping.placement in
  (* Moving to a switch (non-host) must fail and leave everything
     intact... the torus cluster has no switches, so instead move to a
     host that cannot fit by filling criteria: use an out-of-range-free
     approach — move onto the host it is already on is a no-op; use an
     invalid target via a full host. Simply verify failure keeps
     validity by attempting a move that cannot fit: find a host whose
     residual memory is smaller than the guest's demand, if any. *)
  let cluster = (Hmn_mapping.Mapping.problem mapping).Problem.cluster in
  let venv = (Hmn_mapping.Mapping.problem mapping).Problem.venv in
  let guest = 0 in
  let demand = Venv.demand venv guest in
  let non_fitting =
    Array.to_list (Cluster.host_ids cluster)
    |> List.find_opt (fun h ->
           Placement.host_of placement ~guest <> Some h
           && not
                (Hmn_testbed.Resources.fits_mem_stor ~demand
                   ~avail:(Placement.residual placement ~host:h)))
  in
  (match non_fitting with
  | None -> () (* nothing to test on this seed; validity check below still runs *)
  | Some target ->
    let before = Placement.host_of placement ~guest in
    Alcotest.(check bool) "move fails" true
      (Result.is_error (Hmn_online.Incremental.move_guest t ~guest ~host:target));
    Alcotest.(check (option int)) "guest unmoved" before
      (Placement.host_of placement ~guest));
  Alcotest.(check int) "still valid" 0
    (List.length (Validator.check mapping).Validator.violations)

let test_incremental_rebalance () =
  (* Build a deliberately unbalanced valid mapping: place everything
     with the consolidating packer, then rebalance. *)
  let problem = random_problem ~seed:33 ~n_guests:60 in
  match Packing.place Packing.Consolidate problem with
  | Error f -> Alcotest.fail f.Mapper.reason
  | Ok placement -> (
    match Networking.run placement with
    | Error f -> Alcotest.fail f.Mapper.reason
    | Ok (link_map, _) ->
      let mapping = Hmn_mapping.Mapping.make ~placement ~link_map in
      let before = Hmn_mapping.Mapping.objective mapping in
      let t = Hmn_online.Incremental.create mapping in
      let moves = Hmn_online.Incremental.rebalance t in
      let after = Hmn_mapping.Mapping.objective mapping in
      Alcotest.(check bool) "moved some" true (moves > 0);
      Alcotest.(check bool) "improved" true (after < before);
      Alcotest.(check int) "still valid" 0
        (List.length (Validator.check mapping).Validator.violations))

let test_incremental_rebalance_matches_reference () =
  (* One live rebalance move is the move the full-scan stage makes on
     a copy of the same placement. *)
  let problem = random_problem ~seed:33 ~n_guests:60 in
  match Packing.place Packing.Consolidate problem with
  | Error f -> Alcotest.fail f.Mapper.reason
  | Ok placement -> (
    match Networking.run placement with
    | Error f -> Alcotest.fail f.Mapper.reason
    | Ok (link_map, _) ->
      let reference = Placement.copy placement in
      let s0 = Reference_migration.run ~max_moves:1 reference in
      let mapping = Hmn_mapping.Mapping.make ~placement ~link_map in
      let t = Hmn_online.Incremental.create mapping in
      let moves = Hmn_online.Incremental.rebalance ~max_moves:1 t in
      Alcotest.(check int) "one move each" s0.Reference_migration.moves moves;
      Alcotest.(check int) "made a move" 1 moves;
      for guest = 0 to Venv.n_guests problem.Problem.venv - 1 do
        Alcotest.(check (option int))
          (Printf.sprintf "guest %d" guest)
          (Placement.host_of reference ~guest)
          (Placement.host_of placement ~guest)
      done)

let test_incremental_rebalance_many_matches_reference () =
  (* A whole live rebalance, re-routes that fail and roll back
     included, makes the moves the retained per-round loop makes with
     the same live [move] on an identical mapping. *)
  let build () =
    let problem = random_problem ~seed:33 ~n_guests:60 in
    match Packing.place Packing.Consolidate problem with
    | Error f -> Alcotest.fail f.Mapper.reason
    | Ok placement -> (
      match Networking.run placement with
      | Error f -> Alcotest.fail f.Mapper.reason
      | Ok (link_map, _) -> Hmn_mapping.Mapping.make ~placement ~link_map)
  in
  let m0 = build () and m1 = build () in
  let t0 = Hmn_online.Incremental.create m0 and t1 = Hmn_online.Incremental.create m1 in
  let p0 = m0.Hmn_mapping.Mapping.placement and p1 = m1.Hmn_mapping.Mapping.placement in
  let n_guests = Venv.n_guests (Placement.problem p0).Problem.venv in
  let moves0, _ =
    Reference_migration.loop p0 ~max_moves:(4 * n_guests)
      ~move:(fun ~guest ~host ->
        Result.is_ok (Hmn_online.Incremental.move_guest t0 ~guest ~host))
  in
  let moves1 = Hmn_online.Incremental.rebalance t1 in
  Alcotest.(check int) "moves" moves0 moves1;
  Alcotest.(check bool) "several moves" true (moves1 > 1);
  for guest = 0 to n_guests - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "guest %d" guest)
      (Placement.host_of p0 ~guest) (Placement.host_of p1 ~guest)
  done;
  for vlink = 0 to Venv.n_vlinks (Placement.problem p0).Problem.venv - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "vlink %d path" vlink)
      true
      (Hmn_mapping.Link_map.path_of m0.Hmn_mapping.Mapping.link_map ~vlink
      = Hmn_mapping.Link_map.path_of m1.Hmn_mapping.Mapping.link_map ~vlink)
  done;
  Alcotest.(check bool) "lbf bits" true
    (Int64.equal
       (Int64.bits_of_float (Objective.load_balance_factor p0))
       (Int64.bits_of_float (Objective.load_balance_factor p1)))

let test_incremental_rejects_invalid () =
  let problem = random_problem ~seed:34 ~n_guests:10 in
  let placement = Placement.create problem in
  let link_map = Hmn_mapping.Link_map.create problem in
  let mapping = Hmn_mapping.Mapping.make ~placement ~link_map in
  Alcotest.(check bool) "raises on invalid mapping" true
    (match Hmn_online.Incremental.create mapping with
    | exception Invalid_argument _ -> true
    | _ -> false)

let prop_incremental_random_ops_stay_valid =
  QCheck.Test.make ~name:"random live moves preserve mapping validity" ~count:15
    QCheck.small_nat
    (fun seed ->
      let problem = random_problem ~seed:(seed + 9200) ~n_guests:40 in
      match (Hmn.run problem).Mapper.result with
      | Error _ -> true
      | Ok mapping ->
        let t = Hmn_online.Incremental.create mapping in
        let cluster = (Hmn_mapping.Mapping.problem mapping).Problem.cluster in
        let hosts = Cluster.host_ids cluster in
        let rng = Hmn_rng.Rng.create seed in
        for _ = 1 to 20 do
          let guest = Hmn_rng.Rng.int rng ~bound:40 in
          let host = hosts.(Hmn_rng.Rng.int rng ~bound:(Array.length hosts)) in
          ignore (Hmn_online.Incremental.move_guest t ~guest ~host)
        done;
        Validator.is_valid mapping)

(* ---- Registry ---- *)

let test_registry () =
  Alcotest.(check int) "paper pool" 4 (List.length (Registry.paper ()));
  Alcotest.(check int) "full pool" 9 (List.length (Registry.all ()));
  Alcotest.(check bool) "find case-insensitive" true
    (Option.is_some (Registry.find "hmn"));
  Alcotest.(check bool) "find unknown" true (Registry.find "nope" = None);
  Alcotest.(check (list string)) "names"
    [ "HMN"; "R"; "RA"; "HS"; "HN"; "FFD"; "BFD"; "WFD"; "CONS" ]
    (Registry.names ())

(* ---- integration properties ---- *)

let prop_hmn_mappings_always_valid =
  QCheck.Test.make
    ~name:"every successful HMN mapping satisfies Eqs. (1)-(9)" ~count:40
    QCheck.(pair small_nat (int_range 10 120))
    (fun (seed, n_guests) ->
      let problem = random_problem ~seed:(seed + 4000) ~n_guests in
      match (Hmn.run problem).Mapper.result with
      | Error _ -> true (* failing is allowed; returning junk is not *)
      | Ok mapping -> Validator.is_valid mapping)

let prop_baseline_mappings_always_valid =
  QCheck.Test.make
    ~name:"every successful R/RA/HS mapping satisfies Eqs. (1)-(9)" ~count:15
    QCheck.small_nat
    (fun seed ->
      let problem = random_problem ~seed:(seed + 5000) ~n_guests:50 in
      List.for_all
        (fun mapper ->
          match (run_mapper mapper ~seed problem).Mapper.result with
          | Error _ -> true
          | Ok mapping -> Validator.is_valid mapping)
        (Registry.all ~max_tries:30 ()))

let prop_mappers_deterministic =
  QCheck.Test.make
    ~name:"every registered mapper maps an instance identically for a fixed seed"
    ~count:8 QCheck.small_nat
    (fun seed ->
      let problem = random_problem ~seed:(seed + 5500) ~n_guests:40 in
      List.for_all
        (fun mapper ->
          match
            ( (run_mapper mapper ~seed problem).Mapper.result,
              (run_mapper mapper ~seed problem).Mapper.result )
          with
          | Ok a, Ok b ->
            Hmn_prelude.Json.equal (Hmn_io.Codec.mapping_to_json a)
              (Hmn_io.Codec.mapping_to_json b)
          | Error a, Error b -> a = b
          | _ -> false)
        (Registry.all ~max_tries:30 ()))

let prop_migration_never_worsens =
  QCheck.Test.make ~name:"Migration never increases the LBF" ~count:30
    QCheck.small_nat
    (fun seed ->
      let problem = random_problem ~seed:(seed + 6000) ~n_guests:60 in
      match Hosting.run problem with
      | Error _ -> true
      | Ok p ->
        let stats = Migration.run p in
        stats.Migration.lbf_after <= stats.Migration.lbf_before +. 1e-9)

(* The shared round with its exact cut against the retained full-scan
   stage ([Reference_migration]): same final placement, same move
   count, bit-identical final LBF. Placements are drawn three ways --
   random, round-robin (near balanced) and piled onto a few hosts --
   over hosts and guests whose CPU sizes come from small menus, so
   residual CPUs tie often; roughly a third of the hosts have so
   little memory that [fits] rejects targets mid-scan, and half the
   runs cap [max_moves]. *)
let migration_instance ~rng =
  let pick xs = xs.(Hmn_rng.Rng.int rng ~bound:(Array.length xs)) in
  let n_hosts = Hmn_rng.Rng.int_in rng ~lo:2 ~hi:12 in
  let hosts =
    Array.init n_hosts (fun i ->
        host ~mips:(pick [| 1000.; 2000.; 2000.; 3000. |])
          ~mem:(if Hmn_rng.Rng.int rng ~bound:3 = 0 then 700. else 4096.)
          i)
  in
  let n_guests = Hmn_rng.Rng.int_in rng ~lo:1 ~hi:40 in
  let guests =
    Array.init n_guests (fun i ->
        guest ~mips:(pick [| 0.; 100.; 200.; 250.; 500.; 333.3 |]) ~mem:300.
          (Printf.sprintf "g%d" i))
  in
  let vg = Graph.create ~n:n_guests () in
  for _ = 1 to n_guests do
    let a = Hmn_rng.Rng.int rng ~bound:n_guests
    and b = Hmn_rng.Rng.int rng ~bound:n_guests in
    if a <> b then
      ignore
        (Graph.add_edge vg a b
           (Vlink.make ~bandwidth_mbps:(pick [| 1.; 5.; 5.; 20. |]) ~latency_ms:40.))
  done;
  let cluster = Hmn_testbed.Topology.line ~hosts ~link:Link.gigabit in
  let p =
    Placement.create (Problem.make ~cluster ~venv:(Venv.create ~guests ~graph:vg))
  in
  let style = Hmn_rng.Rng.int rng ~bound:3 in
  let piles = 1 + Hmn_rng.Rng.int rng ~bound:2 in
  for g = 0 to n_guests - 1 do
    let first =
      match style with
      | 0 -> Hmn_rng.Rng.int rng ~bound:n_hosts
      | 1 -> g mod n_hosts
      | _ -> Hmn_rng.Rng.int rng ~bound:(min piles n_hosts)
    in
    (* First host from [first] on that fits; guests that fit nowhere
       stay unplaced. *)
    let rec place k =
      if k < n_hosts then
        match Placement.assign p ~guest:g ~host:((first + k) mod n_hosts) with
        | Ok () -> ()
        | Error _ -> place (k + 1)
    in
    place 0
  done;
  let max_moves =
    if Hmn_rng.Rng.bool rng then Some (Hmn_rng.Rng.int rng ~bound:6) else None
  in
  (p, max_moves)

let prop_migration_matches_reference =
  QCheck.Test.make ~name:"Migration with its exact cut matches the full-scan stage"
    ~count:500 QCheck.(int_bound 999_999)
    (fun seed ->
      let p, max_moves = migration_instance ~rng:(Hmn_rng.Rng.create (seed + 6500)) in
      let p0 = Placement.copy p in
      let s0 = Reference_migration.run ?max_moves p0 in
      let s1 = Migration.run ?max_moves p in
      let n_guests = Venv.n_guests (Placement.problem p).Problem.venv in
      List.for_all
        (fun guest -> Placement.host_of p0 ~guest = Placement.host_of p ~guest)
        (List.init n_guests Fun.id)
      && s0.Reference_migration.moves = s1.Migration.moves
      && Int64.equal
           (Int64.bits_of_float s0.Reference_migration.lbf_after)
           (Int64.bits_of_float s1.Migration.lbf_after))

(* The rollback path. [flaky_move] fails a seeded third of the moves
   it could make by migrating the guest there and back, which can
   leave the origin's residual a rounding off its old bits. The
   stage's loop keeps residuals and host order across rounds, so it
   must keep scanning after a failure and re-read those hosts; against
   the retained per-round loop it must give the same final placement,
   the same moves and evaluations, and a bit-identical final LBF. Both
   loops draw from their own copy of the seeded stream, one draw per
   successful migrate, so they fail the same calls as long as they
   make the same calls. *)
let flaky_move p ~rng ~guest ~host =
  let from = Placement.host_of_exn p ~guest in
  match Placement.migrate p ~guest ~host with
  | Error _ -> false
  | Ok () when Hmn_rng.Rng.int rng ~bound:3 = 0 -> (
    match Placement.migrate p ~guest ~host:from with
    | Ok () -> false
    | Error msg -> failwith ("flaky_move: " ^ msg))
  | Ok () -> true

(* Rounding decides the moves. As in [noise_instance], residuals near
   2^26 MIPS make the LBF's ulp exceed [improvement_eps]; here the
   roomy hosts sit within a guest's size of the origin, so a move to
   them changes the variance by less than the LBF's rounding error and
   passes or fails on the exact bits of every residual. The origin's
   two fractional-MIPS guests put its residual where a rolled-back
   a + v - v can come back an ulp off a (about one rollback in six). *)
let noisy_migration_instance ~rng =
  let pick xs = xs.(Hmn_rng.Rng.int rng ~bound:(Array.length xs)) in
  let n = Hmn_rng.Rng.int_in rng ~lo:3 ~hi:8 in
  let roomy = Hmn_rng.Rng.int_in rng ~lo:1 ~hi:(n - 1) in
  let v0 = pick [| 0.3; 0.7; 1.1 |] and v1 = pick [| 0.3; 0.7; 1.1 |] in
  (* The origin's residual top - v0 - v1 sits below 2^26 and
     top - v1 at or above it: returning guest 0 crosses the binade. *)
  let top = Hmn_rng.Rng.float_in rng ~lo:(67108864. +. v1) ~hi:(67108864. +. v0 +. v1) in
  let hosts =
    Array.init n (fun i ->
        if i = 0 then host ~mips:top ~mem:4096. i
        else if i <= roomy then
          host ~mips:(top +. Hmn_rng.Rng.float_in rng ~lo:(-1.) ~hi:1.) ~mem:4096. i
        else host ~mips:(Hmn_rng.Rng.float_in rng ~lo:2e7 ~hi:6e7) ~mem:100. i)
  in
  let guests = [| guest ~mips:v0 ~mem:300. "g0"; guest ~mips:v1 ~mem:300. "g1" |] in
  let cluster = Hmn_testbed.Topology.line ~hosts ~link:Link.gigabit in
  let venv = Venv.create ~guests ~graph:(Graph.create ~n:2 ()) in
  let p = Placement.create (Problem.make ~cluster ~venv) in
  ignore (Placement.assign p ~guest:0 ~host:0);
  ignore (Placement.assign p ~guest:1 ~host:0);
  (p, None)

let prop_migration_rollback_matches_reference =
  QCheck.Test.make
    ~name:"Migration loop with failing moves matches the per-round loop" ~count:1000
    QCheck.(int_bound 999_999)
    (fun seed ->
      let rng = Hmn_rng.Rng.create (seed + 8500) in
      let p, max_moves =
        if seed mod 2 = 0 then migration_instance ~rng else noisy_migration_instance ~rng
      in
      let n_guests = Venv.n_guests (Placement.problem p).Problem.venv in
      let max_moves = Option.value max_moves ~default:(16 * n_guests) in
      let p0 = Placement.copy p in
      let r0 =
        Reference_migration.loop p0 ~max_moves
          ~move:(flaky_move p0 ~rng:(Hmn_rng.Rng.create seed))
      in
      let r1 =
        Migration.loop p ~max_moves ~move:(flaky_move p ~rng:(Hmn_rng.Rng.create seed))
      in
      List.for_all
        (fun guest -> Placement.host_of p0 ~guest = Placement.host_of p ~guest)
        (List.init n_guests Fun.id)
      && r0 = r1
      && Int64.equal
           (Int64.bits_of_float (Objective.load_balance_factor p0))
           (Int64.bits_of_float (Objective.load_balance_factor p)))

(* Where the cut's margin matters. With 3000 hosts and residuals of
   2e7-1e8 MIPS the LBF is about 2.3e7, whose ulp (3.7e-9) exceeds
   [improvement_eps]: the full scan accepts a move whenever rounding
   puts its LBF one ulp lower, even though its exact variance change
   2v(a - b + v)/n is slightly positive. Here one 1-MIPS guest sits
   on host 0, whose capacity exceeds the emptiest other host's by
   0.5 MIPS (a - b + v = 0.5), and only that host has the memory to
   take it. A cut without margin would skip those moves (3 of the 20
   instances); the exact cut must keep every one. *)
let noise_instance ~rng ~n =
  let caps = Array.init n (fun _ -> Hmn_rng.Rng.float_in rng ~lo:2e7 ~hi:1e8) in
  let widest = ref 1 in
  Array.iteri (fun i c -> if i > 0 && c > caps.(!widest) then widest := i) caps;
  caps.(0) <- caps.(!widest) +. 0.5;
  let hosts =
    Array.init n (fun i ->
        host ~mips:caps.(i) ~mem:(if i = 0 || i = !widest then 4096. else 100.) i)
  in
  let cluster = Hmn_testbed.Topology.line ~hosts ~link:Link.gigabit in
  let venv =
    Venv.create ~guests:[| guest ~mips:1. "g" |] ~graph:(Graph.create ~n:1 ())
  in
  let p = Placement.create (Problem.make ~cluster ~venv) in
  ignore (Placement.assign p ~guest:0 ~host:0);
  p

let test_migration_cut_keeps_noise_moves () =
  let noise_moves = ref 0 in
  for seed = 0 to 19 do
    let p = noise_instance ~rng:(Hmn_rng.Rng.create (seed + 7100)) ~n:3000 in
    let p0 = Placement.copy p in
    let s0 = Reference_migration.run ~max_moves:1 p0 in
    let s1 = Migration.run ~max_moves:1 p in
    noise_moves := !noise_moves + s0.Reference_migration.moves;
    Alcotest.(check int) "moves" s0.Reference_migration.moves s1.Migration.moves;
    Alcotest.(check (option int)) "host" (Placement.host_of p0 ~guest:0)
      (Placement.host_of p ~guest:0);
    Alcotest.(check bool) "lbf bits" true
      (Int64.equal
         (Int64.bits_of_float s0.Reference_migration.lbf_after)
         (Int64.bits_of_float s1.Migration.lbf_after))
  done;
  Alcotest.(check bool) "the full scan made noise moves" true (!noise_moves > 0)

(* ---- sharded Hosting properties ---- *)

(* A rack-labelled leaf-spine instance sized like one "rack" of the
   scale path: 4 racks of 5 hosts, thin guests, ~1.5 vlinks/guest. *)
let racked_problem ~seed ~ratio =
  let rng = Hmn_rng.Rng.create seed in
  let cluster =
    Hmn_testbed.Cluster_gen.clos_cluster ~racks:4 ~hosts_per_rack:5 ~spines:2
      ~rng ()
  in
  let n = ratio * Cluster.n_hosts cluster in
  let venv =
    Hmn_vnet.Venv_gen.generate
      ~scale_to_fit:(cluster, 0.8)
      ~profile:Hmn_vnet.Workload.low_level ~n
      ~density:(3. /. float_of_int (n - 1))
      ~rng ()
  in
  Problem.make ~cluster ~venv

let placements_equal a b =
  let pa = Placement.problem a in
  let n = Hmn_vnet.Virtual_env.n_guests pa.Problem.venv in
  let ok = ref true in
  for guest = 0 to n - 1 do
    if Placement.host_of a ~guest <> Placement.host_of b ~guest then ok := false
  done;
  !ok

let prop_sharded_hosting_jobs_invariant =
  QCheck.Test.make
    ~name:"sharded Hosting: identical placements at jobs=1 and jobs=3" ~count:15
    QCheck.small_nat
    (fun seed ->
      let problem = racked_problem ~seed:(seed + 9100) ~ratio:8 in
      match
        ( Hosting.run_sharded ~jobs:1 problem,
          Hosting.run_sharded ~jobs:3 problem )
      with
      | Ok a, Ok b -> Placement.all_assigned a && placements_equal a b
      | Error _, Error _ -> true
      | _ -> false)

let prop_sharded_pipeline_mappings_valid =
  QCheck.Test.make
    ~name:"sharded pipeline mappings satisfy Eqs. (1)-(9) on racked clusters"
    ~count:10 QCheck.small_nat
    (fun seed ->
      let problem = racked_problem ~seed:(seed + 9200) ~ratio:8 in
      let outcome, _ = Hmn.run_sharded_detailed ~jobs:2 problem in
      match outcome.Mapper.result with
      | Error _ -> true (* failing is allowed; returning junk is not *)
      | Ok mapping -> Validator.is_valid mapping)

(* Sharded Hosting against the retained stages A, B and repair
   ([Reference_hosting.run_sharded]) on small Clos fabrics and k=4
   fat-trees, at ratios and memory fractions wide enough that stage B
   leaves guests to repair, stage A sometimes fails in aggregate (the
   flat fallback) and some instances fail outright. *)
let sharded_instance ~rng =
  let module Rng = Hmn_rng.Rng in
  let cluster =
    if Rng.int rng ~bound:5 = 0 then
      Hmn_testbed.Cluster_gen.fat_tree_cluster ~k:4 ~rng ()
    else
      Hmn_testbed.Cluster_gen.clos_cluster
        ~racks:(Rng.int_in rng ~lo:2 ~hi:8)
        ~hosts_per_rack:(Rng.int_in rng ~lo:1 ~hi:12)
        ~spines:(Rng.int_in rng ~lo:1 ~hi:4)
        ~rng ()
  in
  let n = Rng.int_in rng ~lo:1 ~hi:30 * Cluster.n_hosts cluster in
  let profile =
    if Rng.bool rng then Hmn_vnet.Workload.high_level else Hmn_vnet.Workload.low_level
  in
  let venv =
    Hmn_vnet.Venv_gen.generate
      ~scale_to_fit:(cluster, Rng.float_in rng ~lo:0.5 ~hi:1.1)
      ~profile ~n
      ~density:(if n <= 4 then 1. else 3. /. float_of_int (n - 1))
      ~rng ()
  in
  Problem.make ~cluster ~venv

let prop_sharded_hosting_matches_reference =
  QCheck.Test.make ~name:"sharded Hosting matches the retained stages" ~count:300
    QCheck.(int_bound 999_999)
    (fun seed ->
      let problem = sharded_instance ~rng:(Hmn_rng.Rng.create (seed + 9400)) in
      same_hosting
        (Reference_hosting.run_sharded ~jobs:1 problem)
        (Hosting.run_sharded ~jobs:1 problem))

let prop_sharded_falls_back_to_flat_on_unracked =
  QCheck.Test.make
    ~name:"sharded Hosting equals flat Hosting on unracked clusters" ~count:15
    QCheck.small_nat
    (fun seed ->
      let problem = random_problem ~seed:(seed + 9300) ~n_guests:60 in
      match (Hosting.run_sharded ~jobs:3 problem, Hosting.run problem) with
      | Ok a, Ok b -> placements_equal a b
      | Error a, Error b -> a.Mapper.stage = b.Mapper.stage
      | _ -> false)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "hmn_core"
    [
      ( "hosting",
        [
          Alcotest.test_case "affinity co-locates" `Quick test_hosting_affinity_colocates;
          Alcotest.test_case "splits oversized pairs" `Quick
            test_hosting_splits_when_too_big;
          Alcotest.test_case "bandwidth-descending order" `Quick
            test_hosting_processes_links_by_bandwidth;
          Alcotest.test_case "isolated guests" `Quick test_hosting_isolated_guests;
          Alcotest.test_case "fails when impossible" `Quick
            test_hosting_fails_when_impossible;
          Alcotest.test_case "prefers CPU-available host" `Quick
            test_hosting_prefers_cpu_available_host;
          Alcotest.test_case "pair rule matches assignment" `Quick
            test_hosting_pair_rule_matches_assignment;
        ] );
      ( "migration",
        [
          Alcotest.test_case "LBF non-increasing" `Quick
            test_migration_improves_or_keeps_lbf;
          Alcotest.test_case "balances obvious imbalance" `Quick
            test_migration_balances_obvious_imbalance;
          Alcotest.test_case "victim choice" `Quick test_migration_victim_choice;
          Alcotest.test_case "max moves cap" `Quick test_migration_max_moves_cap;
          Alcotest.test_case "cut keeps noise-level moves" `Quick
            test_migration_cut_keeps_noise_moves;
        ] );
      ( "networking",
        [
          Alcotest.test_case "routes all" `Quick test_networking_routes_all;
          Alcotest.test_case "intra-host free" `Quick test_networking_intra_host_free;
          Alcotest.test_case "fails on infeasible" `Quick
            test_networking_fails_on_infeasible_demand;
          Alcotest.test_case "rejects incomplete placement" `Quick
            test_networking_incomplete_placement_rejected;
        ] );
      ( "hmn",
        [
          Alcotest.test_case "end-to-end valid" `Quick test_hmn_end_to_end_valid;
          Alcotest.test_case "migration only helps" `Quick
            test_hmn_beats_or_ties_no_migration;
          Alcotest.test_case "deterministic" `Quick test_hmn_deterministic;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "valid mappings" `Quick
            test_baselines_produce_valid_mappings;
          Alcotest.test_case "R counts tries" `Quick test_random_mapper_counts_tries;
          Alcotest.test_case "R exhausts budget" `Quick
            test_random_mapper_try_budget_exhausts;
          Alcotest.test_case "HS keeps hosting fixed" `Quick
            test_hs_does_not_retry_hosting;
          Alcotest.test_case "last failure kept on success" `Quick
            test_last_failure_kept_on_success;
          Alcotest.test_case "last failure absent when clean" `Quick
            test_last_failure_absent_on_clean_success;
          Alcotest.test_case "last failure on exhaustion" `Quick
            test_last_failure_on_exhaustion;
          Alcotest.test_case "DFS routing valid" `Quick test_dfs_route_all_valid;
        ] );
      ( "packing",
        [
          Alcotest.test_case "strategies place" `Quick test_packing_strategies_valid;
          Alcotest.test_case "consolidation" `Quick test_consolidate_uses_fewer_hosts;
          Alcotest.test_case "worst-fit balances" `Quick test_worst_fit_balances_better;
          Alcotest.test_case "packing failure names the guest it could not place"
            `Quick test_packing_failure_names_guest;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "known optimum" `Quick test_exhaustive_known_optimum;
          Alcotest.test_case "rejects large" `Quick test_exhaustive_rejects_large;
          Alcotest.test_case "infeasible" `Quick test_exhaustive_infeasible;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "move guest" `Quick test_incremental_move_guest;
          Alcotest.test_case "move rollback" `Quick test_incremental_move_rollback;
          Alcotest.test_case "rebalance" `Quick test_incremental_rebalance;
          Alcotest.test_case "rebalance moves like the reference" `Quick
            test_incremental_rebalance_matches_reference;
          Alcotest.test_case "full rebalance moves like the reference" `Quick
            test_incremental_rebalance_many_matches_reference;
          Alcotest.test_case "rejects invalid" `Quick test_incremental_rejects_invalid;
        ] );
      ("registry", [ Alcotest.test_case "lookup" `Quick test_registry ]);
      ( "properties",
        [
          q prop_hmn_mappings_always_valid;
          q prop_baseline_mappings_always_valid;
          q prop_mappers_deterministic;
          q prop_migration_never_worsens;
          q prop_migration_matches_reference;
          q prop_migration_rollback_matches_reference;
          q prop_hosting_matches_reference;
          q prop_hmn_within_factor_of_opt;
          q prop_incremental_random_ops_stay_valid;
        ] );
      ( "sharded",
        [
          q prop_sharded_hosting_jobs_invariant;
          q prop_sharded_pipeline_mappings_valid;
          q prop_sharded_falls_back_to_flat_on_unracked;
          q prop_sharded_hosting_matches_reference;
        ] );
    ]
