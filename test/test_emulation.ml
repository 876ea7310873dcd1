(* Tests for hmn_emulation: the BSP experiment simulator on hand-sized
   mappings with analytically computable makespans, plus the
   correlation accumulator. *)

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
module Path = Hmn_routing.Path
module App = Hmn_emulation.App
module Exec_sim = Hmn_emulation.Exec_sim
module Correlate = Hmn_emulation.Correlate

let check_float = Alcotest.(check (float 1e-9))

(* Two hosts (1000 MIPS each) joined by one 5 ms link. *)
let two_host_cluster () =
  let hosts =
    Array.init 2 (fun i ->
        Node.host
          ~name:(Printf.sprintf "h%d" i)
          ~capacity:(Resources.make ~mips:1000. ~mem_mb:4096. ~stor_gb:1000.))
  in
  Hmn_testbed.Topology.line ~hosts ~link:Link.gigabit

let guest mips = Guest.make ~name:"vm" ~demand:(Resources.make ~mips ~mem_mb:100. ~stor_gb:1.)

(* Builds a mapping with the given per-guest hosts; the single virtual
   link (if guests are separated) is routed over the physical edge. *)
let build_mapping ~guests ~vgraph ~hosts_of =
  let cluster = two_host_cluster () in
  let venv = Venv.create ~guests ~graph:vgraph in
  let problem = Problem.make ~cluster ~venv in
  let placement = Placement.create problem in
  Array.iteri
    (fun g h ->
      match Placement.assign placement ~guest:g ~host:h with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    hosts_of;
  let lm = Link_map.create problem in
  for vlink = 0 to Venv.n_vlinks venv - 1 do
    let vs, vd = Venv.endpoints venv vlink in
    let path =
      if hosts_of.(vs) = hosts_of.(vd) then Path.trivial hosts_of.(vs)
      else Path.make ~nodes:[ hosts_of.(vs); hosts_of.(vd) ] ~edges:[ 0 ]
    in
    match Link_map.assign lm ~vlink path with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done;
  Mapping.make ~placement ~link_map:lm

let app ?(cpu_model = App.Proportional_share) ?(supersteps = 2) ?(chunk = 0.1)
    ?(msg = 0.01) () =
  App.make ~cpu_model ~supersteps ~chunk_seconds:chunk ~msg_seconds:msg ()

let test_single_guest_proportional () =
  (* One 100-MIPS guest on a 1000-MIPS host runs 10x nominal:
     makespan = K * chunk * (100/1000). *)
  let m =
    build_mapping ~guests:[| guest 100. |] ~vgraph:(Graph.create ~n:1 ())
      ~hosts_of:[| 0 |]
  in
  let r = Exec_sim.run ~app:(app ()) m in
  check_float "makespan" 0.02 r.Exec_sim.makespan_s;
  check_float "no slowdown" 1. r.Exec_sim.max_host_slowdown;
  Alcotest.(check int) "no messages" 0
    (r.Exec_sim.intra_host_messages + r.Exec_sim.inter_host_messages)

let test_single_guest_capped () =
  (* Capped model: the guest is pinned at its 100 MIPS, so each chunk
     takes exactly chunk_seconds. *)
  let m =
    build_mapping ~guests:[| guest 100. |] ~vgraph:(Graph.create ~n:1 ())
      ~hosts_of:[| 0 |]
  in
  let r = Exec_sim.run ~app:(app ~cpu_model:App.Capped_fair_share ()) m in
  check_float "makespan = K * chunk" 0.2 r.Exec_sim.makespan_s

let test_colocated_pair () =
  (* Two 100-MIPS guests sharing a 1000-MIPS host: each runs at 500
     MIPS; intra-host messages are free.
     makespan = K * chunk * (200/1000). *)
  let vg = Graph.create ~n:2 () in
  ignore (Graph.add_edge vg 0 1 (Vlink.make ~bandwidth_mbps:10. ~latency_ms:40.));
  let m = build_mapping ~guests:[| guest 100.; guest 100. |] ~vgraph:vg ~hosts_of:[| 0; 0 |] in
  let r = Exec_sim.run ~app:(app ()) m in
  check_float "makespan" 0.04 r.Exec_sim.makespan_s;
  Alcotest.(check int) "intra messages (2 per superstep)" 4
    r.Exec_sim.intra_host_messages;
  Alcotest.(check int) "no inter" 0 r.Exec_sim.inter_host_messages

let test_separated_pair () =
  (* Guests on different hosts: each superstep costs compute (0.01) +
     NIC occupancy (0.01) + path latency (0.005). *)
  let vg = Graph.create ~n:2 () in
  ignore (Graph.add_edge vg 0 1 (Vlink.make ~bandwidth_mbps:10. ~latency_ms:40.));
  let m = build_mapping ~guests:[| guest 100.; guest 100. |] ~vgraph:vg ~hosts_of:[| 0; 1 |] in
  let r = Exec_sim.run ~app:(app ()) m in
  check_float "makespan" (2. *. (0.01 +. 0.01 +. 0.005)) r.Exec_sim.makespan_s;
  Alcotest.(check int) "inter messages" 4 r.Exec_sim.inter_host_messages

let test_colocation_beats_separation () =
  (* The same workload is faster co-located than separated whenever the
     messaging overhead exceeds the added CPU contention — the premise
     of the Hosting stage. *)
  let make hosts_of =
    let vg = Graph.create ~n:2 () in
    ignore (Graph.add_edge vg 0 1 (Vlink.make ~bandwidth_mbps:10. ~latency_ms:40.));
    build_mapping ~guests:[| guest 100.; guest 100. |] ~vgraph:vg ~hosts_of
  in
  let together = Exec_sim.run ~app:(app ()) (make [| 0; 0 |]) in
  let apart = Exec_sim.run ~app:(app ()) (make [| 0; 1 |]) in
  Alcotest.(check bool) "co-located faster" true
    (together.Exec_sim.makespan_s < apart.Exec_sim.makespan_s)

let test_capped_contention_slows () =
  (* Capped model: two 600-MIPS guests on a 1000-MIPS host exceed
     capacity, so both run at 5/6 speed: makespan = K * chunk * 1.2. *)
  let vg = Graph.create ~n:2 () in
  let m = build_mapping ~guests:[| guest 600.; guest 600. |] ~vgraph:vg ~hosts_of:[| 0; 0 |] in
  let r = Exec_sim.run ~app:(app ~cpu_model:App.Capped_fair_share ()) m in
  check_float "makespan" 0.24 r.Exec_sim.makespan_s;
  check_float "slowdown recorded" 1.2 r.Exec_sim.max_host_slowdown

let test_balance_reduces_makespan () =
  (* Four guests: 2+2 across hosts beats 3+1 under proportional
     sharing (the barrier waits for the loaded host). *)
  let make hosts_of =
    let vg = Graph.create ~n:4 () in
    build_mapping
      ~guests:(Array.init 4 (fun _ -> guest 100.))
      ~vgraph:vg ~hosts_of
  in
  let balanced = Exec_sim.run ~app:(app ()) (make [| 0; 0; 1; 1 |]) in
  let skewed = Exec_sim.run ~app:(app ()) (make [| 0; 0; 0; 1 |]) in
  Alcotest.(check bool) "balanced faster" true
    (balanced.Exec_sim.makespan_s < skewed.Exec_sim.makespan_s)

let test_more_supersteps_scale () =
  let m =
    build_mapping ~guests:[| guest 100. |] ~vgraph:(Graph.create ~n:1 ())
      ~hosts_of:[| 0 |]
  in
  let one = Exec_sim.run ~app:(app ~supersteps:1 ()) m in
  let four = Exec_sim.run ~app:(app ~supersteps:4 ()) m in
  check_float "linear in supersteps" (4. *. one.Exec_sim.makespan_s)
    four.Exec_sim.makespan_s

let test_unrouted_link_rejected () =
  let cluster = two_host_cluster () in
  let vg = Graph.create ~n:2 () in
  ignore (Graph.add_edge vg 0 1 (Vlink.make ~bandwidth_mbps:10. ~latency_ms:40.));
  let venv = Venv.create ~guests:[| guest 100.; guest 100. |] ~graph:vg in
  let problem = Problem.make ~cluster ~venv in
  let placement = Placement.create problem in
  ignore (Placement.assign placement ~guest:0 ~host:0);
  ignore (Placement.assign placement ~guest:1 ~host:1);
  let m = Mapping.make ~placement ~link_map:(Link_map.create problem) in
  Alcotest.check_raises "unrouted link"
    (Invalid_argument "Exec_sim.run: inter-host virtual link 0 unrouted") (fun () ->
      ignore (Exec_sim.run m))

let test_sims_deterministic () =
  (* Same mapping -> bit-identical simulation results (the DES has no
     hidden randomness). *)
  let rng = Hmn_rng.Rng.create 55 in
  let cluster =
    Hmn_testbed.Cluster_gen.torus_cluster ~vmm:Hmn_testbed.Vmm.none ~rows:3 ~cols:3
      ~rng ()
  in
  let venv =
    Hmn_vnet.Venv_gen.generate ~scale_to_fit:(cluster, 0.7)
      ~profile:Hmn_vnet.Workload.high_level ~n:30 ~density:0.1 ~rng ()
  in
  let problem = Problem.make ~cluster ~venv in
  match (Hmn_core.Hmn.run problem).Hmn_core.Mapper.result with
  | Error f -> Alcotest.fail f.Hmn_core.Mapper.reason
  | Ok mapping ->
    let a = Exec_sim.run mapping and b = Exec_sim.run mapping in
    check_float "BSP makespan" a.Exec_sim.makespan_s b.Exec_sim.makespan_s;
    Alcotest.(check int) "BSP events" a.Exec_sim.events b.Exec_sim.events

let test_zero_cpu_guest () =
  (* A guest demanding 0 MIPS has zero work and finishes instantly. *)
  let m =
    build_mapping ~guests:[| guest 0. |] ~vgraph:(Graph.create ~n:1 ())
      ~hosts_of:[| 0 |]
  in
  let r = Exec_sim.run ~app:(app ()) m in
  check_float "instant" 0. r.Exec_sim.makespan_s

(* ---- Correlate ---- *)

let test_correlate_basic () =
  let c = Correlate.create () in
  List.iter
    (fun (o, t) -> Correlate.observe c ~group:"g1" ~objective:o ~makespan_s:t)
    [ (1., 1.); (2., 2.); (3., 3.) ];
  Alcotest.(check int) "count" 3 (Correlate.count c);
  check_float "perfect pearson" 1. (Correlate.pearson c);
  check_float "perfect spearman" 1. (Correlate.spearman c)

let test_correlate_within_groups () =
  let c = Correlate.create () in
  (* Two groups, each internally perfectly correlated but offset so the
     pooled correlation is weaker. *)
  List.iter
    (fun (o, t) -> Correlate.observe c ~group:"a" ~objective:o ~makespan_s:t)
    [ (1., 10.); (2., 11.); (3., 12.) ];
  List.iter
    (fun (o, t) -> Correlate.observe c ~group:"b" ~objective:o ~makespan_s:t)
    [ (100., 1.); (200., 2.); (300., 3.) ];
  let within = Correlate.within_group c in
  Alcotest.(check int) "two groups" 2 (List.length within);
  List.iter (fun (_, n, r) ->
      Alcotest.(check int) "group size" 3 n;
      check_float "perfect within" 1. r)
    within;
  (match Correlate.median_within_group c with
  | Some r -> check_float "median" 1. r
  | None -> Alcotest.fail "expected a median");
  Alcotest.(check bool) "pooled weaker" true (Correlate.pearson c < 1.)

let test_correlate_small_groups_skipped () =
  let c = Correlate.create () in
  Correlate.observe c ~group:"tiny" ~objective:1. ~makespan_s:1.;
  Correlate.observe c ~group:"tiny" ~objective:2. ~makespan_s:2.;
  Alcotest.(check int) "group below threshold skipped" 0
    (List.length (Correlate.within_group c));
  Alcotest.(check bool) "no median" true (Correlate.median_within_group c = None);
  Alcotest.(check int) "observations kept" 2 (Array.length (Correlate.observations c))

(* ---- property: makespan behaves monotonically in load ---- *)

let prop_makespan_positive_and_finite =
  QCheck.Test.make ~name:"simulated makespans are finite and non-negative" ~count:30
    QCheck.small_nat
    (fun seed ->
      let rng = Hmn_rng.Rng.create (seed + 100) in
      let cluster =
        Hmn_testbed.Cluster_gen.torus_cluster ~vmm:Hmn_testbed.Vmm.none ~rows:3
          ~cols:3 ~rng ()
      in
      let venv =
        Hmn_vnet.Venv_gen.generate ~scale_to_fit:(cluster, 0.7)
          ~profile:Hmn_vnet.Workload.high_level ~n:30 ~density:0.1 ~rng ()
      in
      let problem = Problem.make ~cluster ~venv in
      match (Hmn_core.Hmn.run problem).Hmn_core.Mapper.result with
      | Error _ -> true
      | Ok mapping ->
        let r = Exec_sim.run mapping in
        Float.is_finite r.Exec_sim.makespan_s
        && r.Exec_sim.makespan_s >= 0.
        && r.Exec_sim.max_host_slowdown >= 1.)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "hmn_emulation"
    [
      ( "exec_sim",
        [
          Alcotest.test_case "single guest proportional" `Quick
            test_single_guest_proportional;
          Alcotest.test_case "single guest capped" `Quick test_single_guest_capped;
          Alcotest.test_case "co-located pair" `Quick test_colocated_pair;
          Alcotest.test_case "separated pair" `Quick test_separated_pair;
          Alcotest.test_case "co-location wins" `Quick test_colocation_beats_separation;
          Alcotest.test_case "capped contention" `Quick test_capped_contention_slows;
          Alcotest.test_case "balance reduces makespan" `Quick
            test_balance_reduces_makespan;
          Alcotest.test_case "supersteps scale" `Quick test_more_supersteps_scale;
          Alcotest.test_case "unrouted rejected" `Quick test_unrouted_link_rejected;
          Alcotest.test_case "deterministic" `Quick test_sims_deterministic;
          Alcotest.test_case "zero-CPU guest" `Quick test_zero_cpu_guest;
        ] );
      ( "correlate",
        [
          Alcotest.test_case "basic" `Quick test_correlate_basic;
          Alcotest.test_case "within groups" `Quick test_correlate_within_groups;
          Alcotest.test_case "small groups skipped" `Quick
            test_correlate_small_groups_skipped;
        ] );
      ("properties", [ q prop_makespan_positive_and_finite ]);
    ]
