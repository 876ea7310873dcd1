(* Tests for hmn_online: occupancy bookkeeping round-trips exactly, the
   multi-tenant validator catches crafted cross-tenant violations, the
   service is deterministic for a fixed seed, rejects under overload,
   drains back to an empty cluster, and defragmentation lowers the
   occupied LBF while keeping the state valid. *)

module Graph = Hmn_graph.Graph
module Cluster = Hmn_testbed.Cluster
module Cluster_gen = Hmn_testbed.Cluster_gen
module Node = Hmn_testbed.Node
module Link = Hmn_testbed.Link
module Resources = Hmn_testbed.Resources
module Guest = Hmn_vnet.Guest
module Vlink = Hmn_vnet.Vlink
module Virtual_env = Hmn_vnet.Virtual_env
module Workload = Hmn_vnet.Workload
module Path = Hmn_routing.Path
module Rng = Hmn_rng.Rng
module Validator = Hmn_validate.Validator
module Registry = Hmn_core.Registry
module Tenant = Hmn_online.Tenant
module Occupancy = Hmn_online.Occupancy
module Admission = Hmn_online.Admission
module Defrag = Hmn_online.Defrag
module Service = Hmn_online.Service

let policy name =
  match Registry.find name with
  | Some p -> p
  | None -> Alcotest.fail ("no policy " ^ name)

(* A ring of four hosts with alternating CPU, so the empty cluster has a
   nonzero LBF and a deliberately skewed placement a much larger one. *)
let ring_cluster () =
  let g = Graph.create ~n:4 () in
  let mk () = Link.make ~bandwidth_mbps:100. ~latency_ms:5. in
  ignore (Graph.add_edge g 0 1 (mk ()));
  ignore (Graph.add_edge g 1 2 (mk ()));
  ignore (Graph.add_edge g 2 3 (mk ()));
  ignore (Graph.add_edge g 3 0 (mk ()));
  let nodes =
    Array.init 4 (fun i ->
        Node.host
          ~name:(Printf.sprintf "h%d" i)
          ~capacity:
            (Resources.make
               ~mips:(if i mod 2 = 0 then 1000. else 2000.)
               ~mem_mb:1024. ~stor_gb:100.))
  in
  Cluster.create ~nodes ~graph:g

(* A single-guest tenant pinned to [host], no virtual links. *)
let solo_tenant ~id ~host ~mips ~mem =
  let venv =
    Virtual_env.create
      ~guests:
        [|
          Guest.make
            ~name:(Printf.sprintf "t%d-vm0" id)
            ~demand:(Resources.make ~mips ~mem_mb:mem ~stor_gb:1.);
        |]
      ~graph:(Graph.create ~n:1 ())
  in
  {
    Tenant.id;
    venv;
    hosts = [| host |];
    paths = [||];
    arrived_at = 0.;
    holding_s = 1.;
  }

let torus ~seed = Cluster_gen.torus_cluster ~rows:3 ~cols:4 ~rng:(Rng.create seed) ()

(* --- occupancy ------------------------------------------------------ *)

let test_occupancy_round_trip () =
  let cluster = torus ~seed:5 in
  let occ = Occupancy.create cluster in
  let venv =
    Hmn_vnet.Venv_gen.generate
      ~scale_to_fit:(cluster, 0.3)
      ~profile:Workload.high_level ~n:5 ~density:0.4 ~rng:(Rng.create 11) ()
  in
  (match
     Admission.try_admit ~occupancy:occ ~policy:(policy "HMN") ~venv
       ~rng:(Rng.create 1) ()
   with
  | Admission.Admitted { mapping = m; _ } ->
      let tn = Tenant.of_mapping ~id:0 ~arrived_at:0. ~holding_s:10. m in
      Occupancy.admit occ tn;
      Alcotest.(check int) "one tenant" 1 (Occupancy.n_tenants occ);
      Alcotest.(check int) "five guests" 5 (Occupancy.n_guests occ);
      Alcotest.(check bool) "occupied state validates" true
        (Validator.multi_ok (Occupancy.validate occ));
      (* the residual cluster lost the tenant's memory *)
      let residual = Occupancy.residual_cluster occ in
      let total_full = (Cluster.total_capacity cluster).Resources.mem_mb in
      let total_res = (Cluster.total_capacity residual).Resources.mem_mb in
      let demand = (Virtual_env.total_demand venv).Resources.mem_mb in
      Alcotest.(check (float 1e-6))
        "residual memory = full - demand" (total_full -. demand) total_res;
      ignore (Occupancy.release occ ~id:0);
      Alcotest.(check bool) "empty after release" true (Occupancy.is_empty occ)
  | Admission.Rejected { reason; _ } ->
      Alcotest.fail ("admission unexpectedly rejected: " ^ reason))

let test_occupancy_admit_guard () =
  let occ = Occupancy.create (ring_cluster ()) in
  (* 900 MB fits a 1024 MB host once, not twice *)
  Occupancy.admit occ (solo_tenant ~id:0 ~host:0 ~mips:10. ~mem:900.);
  Alcotest.check_raises "second 900 MB tenant on h0 rejected"
    (Invalid_argument "Occupancy.admit: node 0 memory over capacity")
    (fun () ->
      Occupancy.admit occ (solo_tenant ~id:1 ~host:0 ~mips:10. ~mem:900.));
  (* the failed admit must not have leaked any usage *)
  ignore (Occupancy.release occ ~id:0);
  Alcotest.(check bool) "empty again" true (Occupancy.is_empty occ)

(* The iteration contract the session rendering leans on: [tenants] is
   ascending by id no matter in which order tenants arrived, departed,
   or were replaced, so two occupancies holding the same tenant set are
   observationally identical. *)
let test_occupancy_tenant_ordering () =
  let ids occ = List.map (fun (tn : Tenant.t) -> tn.Tenant.id) (Occupancy.tenants occ) in
  let mk id = solo_tenant ~id ~host:(id mod 4) ~mips:10. ~mem:10. in
  (* shuffled admits, a release in the middle, a replace at the end *)
  let occ = Occupancy.create (ring_cluster ()) in
  List.iter (fun id -> Occupancy.admit occ (mk id)) [ 7; 2; 9; 0; 5 ];
  ignore (Occupancy.release occ ~id:9);
  List.iter (fun id -> Occupancy.admit occ (mk id)) [ 4; 1 ];
  Occupancy.replace occ (mk 5);
  Alcotest.(check (list int)) "ascending ids" [ 0; 1; 2; 4; 5; 7 ] (ids occ);
  Alcotest.(check int) "n_tenants" 6 (Occupancy.n_tenants occ);
  (* same final set reached in ascending order: identical observations *)
  let occ' = Occupancy.create (ring_cluster ()) in
  List.iter (fun id -> Occupancy.admit occ' (mk id)) [ 0; 1; 2; 4; 5; 7 ];
  Alcotest.(check (list int)) "order-independent" (ids occ') (ids occ);
  Alcotest.(check (float 1e-12)) "same lbf" (Occupancy.lbf occ') (Occupancy.lbf occ);
  Alcotest.(check bool) "validates" true
    (Validator.multi_ok (Occupancy.validate occ));
  (* find hits and misses *)
  Alcotest.(check bool) "find hit" true (Occupancy.find occ ~id:7 <> None);
  Alcotest.(check bool) "find miss" true (Occupancy.find occ ~id:9 = None)

(* --- multi-tenant validator ----------------------------------------- *)

let mk_venv_pair ~mem ~bw =
  (* two guests, one vlink *)
  let g = Graph.create ~n:2 () in
  ignore (Graph.add_edge g 0 1 (Vlink.make ~bandwidth_mbps:bw ~latency_ms:50.));
  Virtual_env.create
    ~guests:
      (Array.init 2 (fun i ->
           Guest.make
             ~name:(Printf.sprintf "vm%d" i)
             ~demand:(Resources.make ~mips:50. ~mem_mb:mem ~stor_gb:1.)))
    ~graph:g

let two_host_cluster () =
  let g = Graph.create ~n:2 () in
  let e01 = Graph.add_edge g 0 1 (Link.make ~bandwidth_mbps:100. ~latency_ms:5.) in
  let nodes =
    Array.init 2 (fun i ->
        Node.host
          ~name:(Printf.sprintf "h%d" i)
          ~capacity:(Resources.make ~mips:1000. ~mem_mb:1024. ~stor_gb:100.))
  in
  (Cluster.create ~nodes ~graph:g, e01)

let spanning_view ~e01 venv =
  (* guest 0 on host 0, guest 1 on host 1, vlink over the single link *)
  {
    Validator.venv;
    t_host_of = (fun g -> if g = 0 then Some 0 else Some 1);
    t_path_of = (fun _ -> Some (Path.make ~nodes:[ 0; 1 ] ~edges:[ e01 ]));
  }

let labels vs = List.map Validator.violation_label vs

let test_check_tenants_shared_overflow () =
  let cluster, e01 = two_host_cluster () in
  (* each tenant alone fits; two of them overflow both memory (2 x 600
     on each 1024 MB host) and bandwidth (2 x 60 on the 100 Mbps link) *)
  let venv = mk_venv_pair ~mem:600. ~bw:60. in
  let view = spanning_view ~e01 venv in
  let r =
    Validator.check_tenants ~cluster ~tenants:[ (0, view); (1, view) ] ()
  in
  Alcotest.(check bool) "not ok" false (Validator.multi_ok r);
  Alcotest.(check (list string)) "no per-tenant violations" []
    (List.concat_map (fun (_, vs) -> labels vs) r.Validator.per_tenant);
  let shared = labels r.Validator.shared in
  Alcotest.(check bool) "memory overflow on both hosts" true
    (List.length (List.filter (( = ) "memory-exceeded") shared) = 2);
  Alcotest.(check bool) "bandwidth overflow on the link" true
    (List.mem "bandwidth-exceeded" shared);
  (* one tenant alone is fine *)
  Alcotest.(check bool) "single tenant ok" true
    (Validator.multi_ok
       (Validator.check_tenants ~cluster ~tenants:[ (0, view) ] ()))

let test_check_tenants_structural_and_stated () =
  let cluster, e01 = two_host_cluster () in
  let venv = mk_venv_pair ~mem:100. ~bw:10. in
  let unassigned =
    {
      Validator.venv;
      t_host_of = (fun g -> if g = 0 then Some 0 else None);
      t_path_of = (fun _ -> None);
    }
  in
  (* with an endpoint unassigned the vlink check is skipped by design *)
  let r = Validator.check_tenants ~cluster ~tenants:[ (7, unassigned) ] () in
  (match r.Validator.per_tenant with
  | [ (7, vs) ] ->
      Alcotest.(check (list string)) "unassigned guest" [ "unassigned-guest" ]
        (labels vs)
  | _ -> Alcotest.fail "expected tenant 7 in per_tenant");
  let unmapped =
    {
      Validator.venv;
      t_host_of = (fun g -> Some (if g = 0 then 0 else 1));
      t_path_of = (fun _ -> None);
    }
  in
  let r1 = Validator.check_tenants ~cluster ~tenants:[ (8, unmapped) ] () in
  (match r1.Validator.per_tenant with
  | [ (8, vs) ] ->
      Alcotest.(check (list string)) "unmapped vlink" [ "unmapped-vlink" ]
        (labels vs)
  | _ -> Alcotest.fail "expected tenant 8 in per_tenant");
  (* stated accounting drift: residual CPU off by 1 MIPS on host 0 *)
  let ok_view = spanning_view ~e01 venv in
  let r2 =
    Validator.check_tenants
      ~stated_residual_cpu:(fun h -> if h = 0 then 951. else 950.)
      ~cluster
      ~tenants:[ (0, ok_view) ]
      ()
  in
  Alcotest.(check (list string)) "cpu drift caught"
    [ "cpu-accounting-mismatch" ] (labels r2.Validator.shared)

(* --- defrag --------------------------------------------------------- *)

let test_defrag_round_lowers_lbf () =
  let occ = Occupancy.create (ring_cluster ()) in
  let empty_lbf = Occupancy.lbf occ in
  (* four 200-MIPS tenants all crowded onto host 0 *)
  for id = 0 to 3 do
    Occupancy.admit occ (solo_tenant ~id ~host:0 ~mips:200. ~mem:100.)
  done;
  let before = Occupancy.lbf occ in
  Alcotest.(check bool) "skewed placement is imbalanced" true
    (before > empty_lbf);
  let validations = ref 0 in
  let moves =
    Defrag.round
      ~on_move:(fun (_ : int) ->
        incr validations;
        Alcotest.(check bool) "state valid after each move" true
          (Validator.multi_ok (Occupancy.validate occ)))
      ~occupancy:occ ~threshold:empty_lbf ~max_moves:8 ()
  in
  let after = Occupancy.lbf occ in
  Alcotest.(check bool) "at least one move" true (moves >= 1);
  Alcotest.(check int) "hook fired per move" moves !validations;
  Alcotest.(check bool) "lbf improved" true (after < before);
  Alcotest.(check int) "no tenant lost" 4 (Occupancy.n_tenants occ)

(* One routing context reused across a defrag commit: the commit
   rebuilds the residual cluster ([Occupancy.residual_cluster] returns
   a fresh object), and no per-node search state may carry over from
   the old one, so each route through the shared context must equal a
   fresh context's — path and search statistics alike. *)
let test_defrag_ctx_rebinds () =
  let occ = Occupancy.create (ring_cluster ()) in
  Occupancy.admit occ (solo_tenant ~id:0 ~host:0 ~mips:400. ~mem:200.);
  let tables = Occupancy.latency_tables occ in
  let route ctx rc =
    Hmn_routing.Astar_prune.route ~ctx
      ~residual:(Hmn_routing.Residual.create rc)
      ~latency_tables:tables ~src:0 ~dst:2 ~bandwidth_mbps:30. ~latency_ms:60. ()
  in
  let shared = Hmn_routing.Route_ctx.create () in
  let matches_fresh what rc =
    match (route shared rc, route (Hmn_routing.Route_ctx.create ()) rc) with
    | Some (p, s), Some (q, s') ->
      let stats (s : Hmn_routing.Astar_prune.stats) =
        (s.Hmn_routing.Astar_prune.expanded, s.Hmn_routing.Astar_prune.generated)
      in
      Alcotest.(check bool)
        (what ^ ": same path") true
        (p.Path.nodes = q.Path.nodes && p.Path.edges = q.Path.edges);
      Alcotest.(check (pair int int)) (what ^ ": same stats") (stats s') (stats s);
      Alcotest.(check bool) (what ^ ": searched") true (fst (stats s) > 0)
    | _ -> Alcotest.fail (what ^ ": expected a path")
  in
  let rc1 = Occupancy.residual_cluster occ in
  matches_fresh "first route" rc1;
  matches_fresh "same cluster" rc1;
  (* Defrag commit: the tenant moves and the residual cluster is
     rebuilt. *)
  Occupancy.replace occ (solo_tenant ~id:0 ~host:2 ~mips:400. ~mem:200.);
  let rc2 = Occupancy.residual_cluster occ in
  Alcotest.(check bool) "replace rebuilds the cluster" true (rc1 != rc2);
  matches_fresh "after the replace" rc2

(* --- service -------------------------------------------------------- *)

let small_config =
  {
    Service.default_config with
    seed = 97;
    arrival_rate_per_s = 1. /. 60.;
    mean_holding_s = 240.;
    duration_s = 1200.;
    guests_lo = 3;
    guests_hi = 6;
    scale_frac = 0.3;
    validate = true;
  }

let test_service_deterministic () =
  let run () =
    Service.run ~cluster:(torus ~seed:5) ~policy:(policy "HMN") small_config
  in
  let a = run () and b = run () in
  Alcotest.(check string) "byte-identical rendering"
    (Hmn_online.Session.render_summary a)
    (Hmn_online.Session.render_summary b);
  Alcotest.(check bool) "some arrivals happened" true (a.arrivals > 0);
  Alcotest.(check int) "all admitted tenants departed" a.admitted a.departures

let test_service_rejects_under_overload () =
  (* large tenants arriving far faster than they leave on a small
     cluster: the residual must run out and admissions fail *)
  let config =
    {
      small_config with
      seed = 31;
      arrival_rate_per_s = 1. /. 5.;
      mean_holding_s = 2000.;
      duration_s = 600.;
      guests_lo = 8;
      guests_hi = 12;
      scale_frac = 0.45;
    }
  in
  let s = Service.run ~cluster:(torus ~seed:5) ~policy:(policy "HMN") config in
  Alcotest.(check bool) "some rejected" true (s.rejected > 0);
  Alcotest.(check bool) "acceptance below 1" true (s.acceptance < 1.);
  Alcotest.(check bool) "but not everything rejected" true (s.admitted > 0)

let test_service_defrag_engaged () =
  let config =
    {
      small_config with
      seed = 13;
      defrag =
        Some { Defrag.interval_s = 90.; trigger = 0.; max_moves_per_round = 4 };
    }
  in
  let s = Service.run ~cluster:(torus ~seed:5) ~policy:(policy "R") config in
  (* trigger 0 means every periodic check with a nonempty cluster runs a
     round; validation (validate = true) gates every move *)
  Alcotest.(check bool) "defrag rounds ran" true (s.defrag_rounds > 0)

(* --- flight recorder ------------------------------------------------ *)

module Flight = Hmn_online.Flight
module Quantile = Hmn_obs.Quantile

let count_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go acc i =
    if i + n > h then acc
    else if String.sub hay i n = needle then go (acc + 1) (i + n)
    else go acc (i + 1)
  in
  go 0 0

let overload_config =
  {
    small_config with
    seed = 31;
    arrival_rate_per_s = 1. /. 5.;
    mean_holding_s = 2000.;
    duration_s = 600.;
    guests_lo = 8;
    guests_hi = 12;
    scale_frac = 0.45;
  }

let run_flight ?(config = overload_config) () =
  let cluster = torus ~seed:5 in
  let flight = Flight.create cluster in
  let s = Service.run ~flight ~cluster ~policy:(policy "HMN") config in
  (flight, s)

(* validate = true (inherited from small_config): every journaled
   rejection cause and candidate count was independently re-derived by
   Hmn_validate.Decision during the run — a disagreement with the
   admission-side classifier would have raised Validation_failed. *)
let test_journal_deterministic_and_checked () =
  let f1, s1 = run_flight () in
  let f2, s2 = run_flight () in
  Alcotest.(check bool) "rejections occurred" true (s1.rejected > 0);
  Alcotest.(check int) "same outcome" s1.rejected s2.rejected;
  let j1 = Option.get (Flight.events_jsonl f1) in
  Alcotest.(check string) "journal byte-identical across reruns" j1
    (Option.get (Flight.events_jsonl f2));
  Alcotest.(check string) "timeline byte-identical across reruns"
    (Option.get (Flight.timeline_csv f1))
    (Option.get (Flight.timeline_csv f2));
  (* journal coverage: one decision record per arrival outcome, every
     rejection carrying a cause from the closed taxonomy *)
  Alcotest.(check int) "one reject record per rejection" s1.rejected
    (count_substring j1 "\"event\":\"reject\"");
  Alcotest.(check int) "one admit record per admission" s1.admitted
    (count_substring j1 "\"event\":\"admit\"");
  Alcotest.(check int) "every reject names a cause" s1.rejected
    (count_substring j1 "\"cause\":\"");
  Alcotest.(check int) "one departure record each" s1.departures
    (count_substring j1 "\"event\":\"depart\"")

let test_work_quantiles_deterministic () =
  let f1, s1 = run_flight () in
  let f2, _ = run_flight () in
  let q1 = Option.get (Flight.admit_work f1) in
  let q2 = Option.get (Flight.admit_work f2) in
  Alcotest.(check int) "one sample per arrival" s1.arrivals
    (Quantile.count q1);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%g identical" (p *. 100.))
        (Quantile.quantile q1 p) (Quantile.quantile q2 p))
    [ 0.5; 0.9; 0.99; 0.999; 1. ]

(* The recorder must be passive: the deterministic summary is
   byte-identical with and without a flight recorder attached. *)
let test_flight_recorder_is_passive () =
  let bare =
    Service.run ~cluster:(torus ~seed:5) ~policy:(policy "HMN")
      overload_config
  in
  let _, recorded = run_flight () in
  Alcotest.(check string) "summary unchanged by the recorder"
    (Hmn_online.Session.render_summary bare)
    (Hmn_online.Session.render_summary recorded)

(* No other session here runs a packing policy. WFD's hosting failures
   name the guest they got stuck on, and with validate = true every
   journaled cause was re-derived by Hmn_validate.Decision: a
   disagreement would have raised Validation_failed. *)
let test_wfd_session_agrees_with_decision () =
  let cluster = torus ~seed:5 in
  let flight = Flight.create cluster in
  let s = Service.run ~flight ~cluster ~policy:(policy "WFD") overload_config in
  let j = Option.get (Flight.events_jsonl flight) in
  Alcotest.(check bool) "rejections occurred" true (s.rejected > 0);
  Alcotest.(check int) "every reject names a cause" s.rejected
    (count_substring j "\"cause\":\"");
  Alcotest.(check bool) "hosting rejections name their guest" true
    (count_substring j "\"cause\":\"hosting-" > 0
    && count_substring j "\"guest\":" >= count_substring j "\"cause\":\"hosting-")

(* Defrag-assisted admission: on a non-screen rejection the service runs
   one compaction round and retries; when the retry lands the journal
   records an admit-defrag decision. The seed scan is deterministic, so
   the test always exercises the same session. *)
let test_defrag_assisted_admission () =
  let config seed =
    {
      overload_config with
      seed;
      defrag =
        Some { Defrag.interval_s = 90.; trigger = 0.; max_moves_per_round = 4 };
      defrag_on_reject = true;
    }
  in
  let rec scan seed =
    if seed > 40 then
      Alcotest.fail "no seed in 1..40 produced a defrag-assisted admission"
    else
      let flight, s = run_flight ~config:(config seed) () in
      let j = Option.get (Flight.events_jsonl flight) in
      let assisted = count_substring j "\"event\":\"admit-defrag\"" in
      if assisted = 0 then scan (seed + 1)
      else begin
        Alcotest.(check bool) "defrag moves were journaled" true
          (count_substring j "\"event\":\"defrag-move\"" > 0);
        (* an assisted admit still counts as admitted in the summary *)
        Alcotest.(check int) "admit records cover both kinds" s.admitted
          (count_substring j "\"event\":\"admit\"" + assisted)
      end
  in
  scan 1

let test_service_policy_independent_load () =
  (* the offered stream is pre-generated: every policy must see the same
     arrival count *)
  let run name =
    Service.run ~cluster:(torus ~seed:5) ~policy:(policy name)
      { small_config with validate = false }
  in
  let hmn = run "HMN" and r = run "R" and hs = run "HS" in
  Alcotest.(check int) "same arrivals HMN/R" hmn.arrivals r.arrivals;
  Alcotest.(check int) "same arrivals HMN/HS" hmn.arrivals hs.arrivals

(* Networking attribution on a crafted residual. Hosts 0-1-2 form a
   100 Mbps, 5 ms-per-hop line with a 1 ms shortcut 0-2 of only
   5 Mbps; host 3 hangs off host 2 by a 1 Mbps link. A 50 Mbps vlink
   then has no feasible path to host 3 (bandwidth), reaches host 2 only
   over the 10 ms line, not the shortcut (latency under an 8 ms bound),
   and under a 20 ms bound was feasible in the fresh residual, so only
   the request's own reservations can have blocked it (bandwidth). *)
let test_explain_networking_causes () =
  let g = Graph.create ~n:4 () in
  let link bw lat = Link.make ~bandwidth_mbps:bw ~latency_ms:lat in
  ignore (Graph.add_edge g 0 1 (link 100. 5.));
  ignore (Graph.add_edge g 1 2 (link 100. 5.));
  ignore (Graph.add_edge g 0 2 (link 5. 1.));
  ignore (Graph.add_edge g 2 3 (link 1. 1.));
  let nodes =
    Array.init 4 (fun i ->
        Node.host
          ~name:(Printf.sprintf "h%d" i)
          ~capacity:(Resources.make ~mips:1000. ~mem_mb:1024. ~stor_gb:100.))
  in
  let residual = Cluster.create ~nodes ~graph:g in
  let venv = (solo_tenant ~id:0 ~host:0 ~mips:1. ~mem:1.).Tenant.venv in
  let explain ~dst ~latency_ms =
    Admission.explain ~residual ~venv ~stage:"networking" ~reason:"unroutable"
      ~detail:
        (Some
           (Hmn_core.Mapper.Unroutable_vlink
              { vlink = 0; src_host = 0; dst_host = dst; bandwidth_mbps = 50.; latency_ms }))
  in
  let check name ~cause ~binding (e : Admission.explanation) =
    Alcotest.(check bool) (name ^ ": cause") true (e.Admission.cause = cause);
    Alcotest.(check bool)
      (name ^ ": binding " ^ e.Admission.binding)
      true
      (count_substring e.Admission.binding binding = 1)
  in
  let bandwidth = Hmn_obs.Journal.(Networking Bandwidth) in
  check "no feasible path" ~cause:bandwidth ~binding:"no path with 50.000 Mbps free"
    (explain ~dst:3 ~latency_ms:100.);
  check "over the bound" ~cause:Hmn_obs.Journal.(Networking Latency)
    ~binding:"best feasible path 10.0 ms exceeds the 8.0 ms bound"
    (explain ~dst:2 ~latency_ms:8.);
  check "own reservations" ~cause:bandwidth ~binding:"own reservations"
    (explain ~dst:2 ~latency_ms:20.)

let () =
  Alcotest.run "hmn_online"
    [
      ( "occupancy",
        [
          Alcotest.test_case "admit/release round trip" `Quick
            test_occupancy_round_trip;
          Alcotest.test_case "admit guard" `Quick test_occupancy_admit_guard;
          Alcotest.test_case "tenant ordering" `Quick
            test_occupancy_tenant_ordering;
        ] );
      ( "validator",
        [
          Alcotest.test_case "shared overflow" `Quick
            test_check_tenants_shared_overflow;
          Alcotest.test_case "structural and stated" `Quick
            test_check_tenants_structural_and_stated;
        ] );
      ( "defrag",
        [
          Alcotest.test_case "round lowers lbf" `Quick
            test_defrag_round_lowers_lbf;
          Alcotest.test_case "ctx rebinds across a replace" `Quick test_defrag_ctx_rebinds;
        ] );
      ( "service",
        [
          Alcotest.test_case "deterministic" `Quick test_service_deterministic;
          Alcotest.test_case "rejects under overload" `Quick
            test_service_rejects_under_overload;
          Alcotest.test_case "defrag engaged" `Quick test_service_defrag_engaged;
          Alcotest.test_case "policy-independent load" `Quick
            test_service_policy_independent_load;
        ] );
      ( "flight recorder",
        [
          Alcotest.test_case "journal determinism + validator agreement"
            `Quick test_journal_deterministic_and_checked;
          Alcotest.test_case "work quantiles deterministic" `Quick
            test_work_quantiles_deterministic;
          Alcotest.test_case "recorder is passive" `Quick
            test_flight_recorder_is_passive;
          Alcotest.test_case "defrag-assisted admission" `Quick
            test_defrag_assisted_admission;
          Alcotest.test_case "a validated WFD session agrees with Decision" `Quick
            test_wfd_session_agrees_with_decision;
        ] );
      ( "admission",
        [
          Alcotest.test_case "explain networking causes" `Quick
            test_explain_networking_causes;
        ] );
    ]
