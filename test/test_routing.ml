(* Tests for hmn_routing: paths, residual bookkeeping, latency tables,
   the paper's modified A*Prune (Algorithm 1) and the DFS baseline
   router. A*Prune is verified against a brute-force enumeration of all
   simple paths on small clusters. *)

module Graph = Hmn_graph.Graph
module Cluster = Hmn_testbed.Cluster
module Node = Hmn_testbed.Node
module Link = Hmn_testbed.Link
module Resources = Hmn_testbed.Resources
module Path = Hmn_routing.Path
module Residual = Hmn_routing.Residual
module Latency_table = Hmn_routing.Latency_table
module Astar = Hmn_routing.Astar_prune
module Dfs = Hmn_routing.Dfs_route

let host i =
  Node.host
    ~name:(Printf.sprintf "h%d" i)
    ~capacity:(Resources.make ~mips:1000. ~mem_mb:1024. ~stor_gb:100.)

(* A 4-node cluster:
     0 --(100 Mbps, 5 ms)-- 1 --(100 Mbps, 5 ms)-- 2
     0 --------------(10 Mbps, 5 ms)-------------- 2
     2 --(100 Mbps, 5 ms)-- 3 *)
let small_cluster () =
  let g = Graph.create ~n:4 () in
  let mk bw = Link.make ~bandwidth_mbps:bw ~latency_ms:5. in
  let e01 = Graph.add_edge g 0 1 (mk 100.) in
  let e12 = Graph.add_edge g 1 2 (mk 100.) in
  let e02 = Graph.add_edge g 0 2 (mk 10.) in
  let e23 = Graph.add_edge g 2 3 (mk 100.) in
  (Cluster.create ~nodes:(Array.init 4 host) ~graph:g, e01, e12, e02, e23)

(* ---- Path ---- *)

let test_path_basics () =
  let cluster, e01, e12, _, _ = small_cluster () in
  let p = Path.make ~nodes:[ 0; 1; 2 ] ~edges:[ e01; e12 ] in
  Alcotest.(check int) "src" 0 (Path.src p);
  Alcotest.(check int) "dst" 2 (Path.dst p);
  Alcotest.(check int) "hops" 2 (Path.hop_count p);
  Alcotest.(check bool) "not intra" false (Path.is_intra_host p);
  Alcotest.(check (float 1e-9)) "latency" 10. (Path.total_latency cluster p);
  let trivial = Path.trivial 2 in
  Alcotest.(check bool) "trivial intra" true (Path.is_intra_host trivial);
  Alcotest.(check (float 1e-9)) "trivial latency" 0.
    (Path.total_latency cluster trivial);
  Alcotest.(check bool) "trivial infinite bottleneck" true
    (Path.bottleneck ~capacity:(fun _ -> 1.) trivial = infinity);
  Alcotest.(check (float 1e-9)) "bottleneck" 7.
    (Path.bottleneck ~capacity:(fun e -> if e = e01 then 7. else 9.) p)

let test_path_make_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Path.make: empty node list")
    (fun () -> ignore (Path.make ~nodes:[] ~edges:[]));
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Path.make: edge/node length mismatch") (fun () ->
      ignore (Path.make ~nodes:[ 0; 1 ] ~edges:[]))

let test_path_validate () =
  let cluster, e01, e12, e02, _ = small_cluster () in
  let ok p src dst = Path.validate cluster ~src ~dst p in
  let good = Path.make ~nodes:[ 0; 1; 2 ] ~edges:[ e01; e12 ] in
  Alcotest.(check bool) "valid" true (Result.is_ok (ok good 0 2));
  Alcotest.(check bool) "wrong src" true (Result.is_error (ok good 1 2));
  Alcotest.(check bool) "wrong dst" true (Result.is_error (ok good 0 3));
  (* Edge that does not join the stated nodes (Eq. 6 violation). *)
  let bad_edge = Path.make ~nodes:[ 0; 1; 2 ] ~edges:[ e01; e02 ] in
  Alcotest.(check bool) "edge mismatch" true (Result.is_error (ok bad_edge 0 2));
  (* Loop (Eq. 7 violation). *)
  let loopy = Path.make ~nodes:[ 0; 1; 0; 2 ] ~edges:[ e01; e01; e02 ] in
  Alcotest.(check bool) "loop rejected" true (Result.is_error (ok loopy 0 2))

(* ---- Residual ---- *)

let test_residual_reserve_release () =
  let cluster, e01, e12, _, _ = small_cluster () in
  let res = Residual.create cluster in
  Alcotest.(check (float 1e-9)) "initial" 100. (Residual.available res e01);
  let p = Path.make ~nodes:[ 0; 1; 2 ] ~edges:[ e01; e12 ] in
  (match Residual.reserve_path res p 30. with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (float 1e-9)) "after reserve" 70. (Residual.available res e01);
  Alcotest.(check (float 1e-9)) "used" 30. (Residual.used res e12);
  Residual.release_path res p 30.;
  Alcotest.(check (float 1e-9)) "after release" 100. (Residual.available res e01)

let test_residual_atomic_failure () =
  let cluster, e01, e12, _, _ = small_cluster () in
  let res = Residual.create cluster in
  (* Drain e12 so reserving along 0-1-2 must fail without touching e01. *)
  let p12 = Path.make ~nodes:[ 1; 2 ] ~edges:[ e12 ] in
  (match Residual.reserve_path res p12 95. with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let p = Path.make ~nodes:[ 0; 1; 2 ] ~edges:[ e01; e12 ] in
  Alcotest.(check bool) "reserve fails" true
    (Result.is_error (Residual.reserve_path res p 30.));
  Alcotest.(check (float 1e-9)) "e01 untouched" 100. (Residual.available res e01)

let test_residual_release_overflow () =
  let cluster, e01, _, _, _ = small_cluster () in
  let res = Residual.create cluster in
  let p = Path.make ~nodes:[ 0; 1 ] ~edges:[ e01 ] in
  Alcotest.check_raises "over-release"
    (Invalid_argument "Residual.release_path: release exceeds capacity") (fun () ->
      Residual.release_path res p 1.)

let test_residual_copy_and_utilization () =
  let cluster, e01, _, _, _ = small_cluster () in
  let res = Residual.create cluster in
  Alcotest.(check (float 1e-9)) "empty utilization" 0. (Residual.utilization res);
  let p = Path.make ~nodes:[ 0; 1 ] ~edges:[ e01 ] in
  (match Residual.reserve_path res p 50. with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let copy = Residual.copy res in
  Residual.release_path res p 50.;
  Alcotest.(check (float 1e-9)) "copy unaffected" 50. (Residual.available copy e01);
  Alcotest.(check (float 1e-9)) "copy utilization" 0.125 (Residual.utilization copy)

let random_cluster ~n ~rng =
  let shape = Hmn_graph.Generators.random_connected ~n ~density:0.3 ~rng in
  let g =
    Graph.map_labels shape ~f:(fun ~eid:_ () ->
        Link.make
          ~bandwidth_mbps:(10. +. (90. *. Hmn_rng.Rng.float rng))
          ~latency_ms:(1. +. (9. *. Hmn_rng.Rng.float rng)))
  in
  Cluster.create ~nodes:(Array.init n host) ~graph:g

(* Reserve/release cycles with awkward fractional bandwidths, then an
   exactly-saturating reservation: the shared tolerance must absorb the
   floating-point drift symmetrically (the historical bug: release
   tolerated 1e-6 of drift, reserve none, so a full-capacity request
   spuriously failed after churn). ~10^4 round-trips across the runs. *)
let prop_residual_round_trip =
  QCheck.Test.make
    ~name:"reserve/release round-trips preserve avail = capacity within tolerance"
    ~count:1000 QCheck.small_nat
    (fun seed ->
      let rng = Hmn_rng.Rng.create (seed + 4000) in
      let cluster = random_cluster ~n:6 ~rng in
      let res = Residual.create cluster in
      let g = Cluster.graph cluster in
      let n_edges = Graph.n_edges g in
      let edge_path eid =
        let u, v = Graph.endpoints g eid in
        Path.make ~nodes:[ u; v ] ~edges:[ eid ]
      in
      for _ = 1 to 3 do
        (* A batch of fractional reservations that sums to <= capacity
           on every edge, then release them all. *)
        let m = 1 + Hmn_rng.Rng.int rng ~bound:6 in
        let batch =
          List.init m (fun _ ->
              let eid = Hmn_rng.Rng.int rng ~bound:n_edges in
              let cap = (Cluster.link cluster eid).Link.bandwidth_mbps in
              let bw = cap /. float_of_int m *. Hmn_rng.Rng.float rng in
              (eid, bw))
        in
        List.iter
          (fun (eid, bw) ->
            match Residual.reserve_path res (edge_path eid) bw with
            | Ok () -> ()
            | Error e -> Alcotest.fail e)
          batch;
        List.iter (fun (eid, bw) -> Residual.release_path res (edge_path eid) bw) batch
      done;
      (* Drift after full release stays within the documented bound... *)
      let within_tolerance = ref true in
      for eid = 0 to n_edges - 1 do
        let cap = (Cluster.link cluster eid).Link.bandwidth_mbps in
        if Float.abs (Residual.available res eid -. cap) > Residual.tolerance then
          within_tolerance := false
      done;
      (* ...and an exactly-saturating reservation still succeeds. *)
      let eid = Hmn_rng.Rng.int rng ~bound:n_edges in
      let cap = (Cluster.link cluster eid).Link.bandwidth_mbps in
      let saturates =
        Result.is_ok (Residual.reserve_path res (edge_path eid) cap)
      in
      (* Releasing it restores the pre-reserve value to within the
         single-tolerance ledger bound (the ledger is exact, so the
         saturating round-trip adds no drift of its own). *)
      if saturates then Residual.release_path res (edge_path eid) cap;
      !within_tolerance && saturates
      && Float.abs (Residual.available res eid -. cap) <= Residual.tolerance)

(* The exact-ledger guarantee the old clamp-at-zero reserve violated:
   once a saturated edge has absorbed its single tolerance of
   overshoot, further sub-tolerance reservations are rejected instead
   of being forgiven forever (unbounded overcommit). *)
let test_residual_overcommit_bounded () =
  let cluster, e01, _, _, _ = small_cluster () in
  let res = Residual.create cluster in
  let p = Path.make ~nodes:[ 0; 1 ] ~edges:[ e01 ] in
  (match Residual.reserve_path res p 100. with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (float 0.)) "saturated" 0. (Residual.available res e01);
  (* One tolerance-sized reservation rides the check's slack... *)
  (match Residual.reserve_path res p Residual.tolerance with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (float 1e-18))
    "deficit on the ledger" (-.Residual.tolerance)
    (Residual.available res e01);
  (* ...and from then on the deficit is charged: no further overcommit,
     however small the request. *)
  Alcotest.(check bool) "second overshoot rejected" true
    (Result.is_error (Residual.reserve_path res p Residual.tolerance));
  Alcotest.(check bool) "even a tiny one" true
    (Result.is_error (Residual.reserve_path res p (Residual.tolerance /. 8.)));
  (* Releasing everything reserved returns the edge to capacity. *)
  Residual.release_path res p Residual.tolerance;
  Residual.release_path res p 100.;
  Alcotest.(check (float 0.)) "capacity restored" 100.
    (Residual.available res e01)

let prop_residual_reserve_atomic =
  QCheck.Test.make ~name:"a failed multi-edge reserve leaves every edge untouched"
    ~count:200 QCheck.small_nat
    (fun seed ->
      let rng = Hmn_rng.Rng.create (seed + 5000) in
      let cluster = random_cluster ~n:6 ~rng in
      let res = Residual.create cluster in
      let g = Cluster.graph cluster in
      (* Find a 2-hop path a - u - b through distinct neighbors. *)
      let found = ref None in
      for u = 0 to Graph.n_nodes g - 1 do
        if !found = None then
          match Graph.adj_list g u with
          | (a, ea) :: rest -> (
            match List.find_opt (fun (b, _) -> b <> a) rest with
            | Some (b, eb) -> found := Some (a, ea, u, b, eb)
            | None -> ())
          | [] -> ()
      done;
      match !found with
      | None -> QCheck.assume_fail ()  (* no 2-hop path in this draw *)
      | Some (a, ea, u, b, eb) ->
        let path = Path.make ~nodes:[ a; u; b ] ~edges:[ ea; eb ] in
        (* Drain eb below the request so the reserve must fail. *)
        let cap_b = (Cluster.link cluster eb).Link.bandwidth_mbps in
        (match
           Residual.reserve_path res (Path.make ~nodes:[ u; b ] ~edges:[ eb ])
             (cap_b -. 1.)
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        let before = Array.init (Graph.n_edges g) (Residual.available res) in
        let failed = Result.is_error (Residual.reserve_path res path 5.) in
        failed
        && Array.for_all2 ( = ) before
             (Array.init (Graph.n_edges g) (Residual.available res)))

let test_utilization_zero_capacity_link () =
  (* A zero-bandwidth (administratively dead) cable must not poison the
     mean with NaN. *)
  let g = Graph.create ~n:3 () in
  let e01 = Graph.add_edge g 0 1 (Link.make ~bandwidth_mbps:100. ~latency_ms:5.) in
  ignore
    (Graph.add_edge g 1 2 { Link.bandwidth_mbps = 0.; latency_ms = 5. });
  let cluster = Cluster.create ~nodes:(Array.init 3 host) ~graph:g in
  let res = Residual.create cluster in
  (match Residual.reserve_path res (Path.make ~nodes:[ 0; 1 ] ~edges:[ e01 ]) 50. with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let u = Residual.utilization res in
  Alcotest.(check bool) "finite" true (Float.is_finite u);
  Alcotest.(check (float 1e-9)) "mean over live links only" 0.5 u

(* ---- Latency_table ---- *)

let test_latency_table () =
  let cluster, _, _, _, _ = small_cluster () in
  let tables = Latency_table.create cluster in
  let ar = Latency_table.to_destination tables ~dst:3 in
  Alcotest.(check (float 1e-9)) "dst itself" 0. (Latency_table.get ar 3);
  Alcotest.(check (float 1e-9)) "adjacent" 5. (Latency_table.get ar 2);
  Alcotest.(check (float 1e-9)) "0 via 2" 10. (Latency_table.get ar 0);
  ignore (Latency_table.to_destination tables ~dst:3);
  Alcotest.(check int) "cache hit" 1 (Latency_table.hits tables);
  Alcotest.(check int) "one miss" 1 (Latency_table.misses tables);
  (* Node 3 is a leaf (sole cable to host 2), so its table must come
     from the landmark scheme, not its own Dijkstra. *)
  Alcotest.(check int) "derived via landmark" 1 (Latency_table.derived tables);
  Alcotest.(check int) "one dijkstra" 1 (Latency_table.dijkstras tables)

(* ---- Astar_prune ---- *)

let test_astar_widest_choice () =
  let cluster, _, _, _, _ = small_cluster () in
  let residual = Residual.create cluster in
  let tables = Latency_table.create cluster in
  (* 0->2 with a loose latency bound: the two-hop 100 Mbps path has the
     wider bottleneck than the direct 10 Mbps edge. *)
  match
    Astar.route ~residual ~latency_tables:tables ~src:0 ~dst:2 ~bandwidth_mbps:1.
      ~latency_ms:60. ()
  with
  | Some (p, _) ->
    Alcotest.(check int) "two hops" 2 (Path.hop_count p);
    Alcotest.(check (float 1e-9)) "bottleneck 100" 100.
      (Path.bottleneck ~capacity:(Residual.available residual) p)
  | None -> Alcotest.fail "expected a path"

let test_astar_latency_forces_direct () =
  let cluster, _, _, _, _ = small_cluster () in
  let residual = Residual.create cluster in
  let tables = Latency_table.create cluster in
  (* Latency bound 5 ms only admits the direct edge. *)
  match
    Astar.route ~residual ~latency_tables:tables ~src:0 ~dst:2 ~bandwidth_mbps:1.
      ~latency_ms:5. ()
  with
  | Some (p, _) -> Alcotest.(check int) "direct" 1 (Path.hop_count p)
  | None -> Alcotest.fail "expected the direct path"

let test_astar_bandwidth_prunes () =
  let cluster, _, _, _, _ = small_cluster () in
  let residual = Residual.create cluster in
  let tables = Latency_table.create cluster in
  (* Demanding 50 Mbps with a 5 ms bound: the only in-bound path (the
     direct 10 Mbps edge) lacks bandwidth -> no path. *)
  Alcotest.(check bool) "no feasible path" true
    (Astar.route ~residual ~latency_tables:tables ~src:0 ~dst:2 ~bandwidth_mbps:50.
       ~latency_ms:5. ()
    = None);
  (* With a loose bound the 100 Mbps detour qualifies. *)
  Alcotest.(check bool) "detour found" true
    (Astar.route ~residual ~latency_tables:tables ~src:0 ~dst:2 ~bandwidth_mbps:50.
       ~latency_ms:60. ()
    <> None)

let test_astar_trivial_and_errors () =
  let cluster, _, _, _, _ = small_cluster () in
  let residual = Residual.create cluster in
  let tables = Latency_table.create cluster in
  (match
     Astar.route ~residual ~latency_tables:tables ~src:1 ~dst:1 ~bandwidth_mbps:1.
       ~latency_ms:0. ()
   with
  | Some (p, _) -> Alcotest.(check bool) "trivial" true (Path.is_intra_host p)
  | None -> Alcotest.fail "src = dst must yield the trivial path");
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Astar_prune.route: bandwidth must be positive") (fun () ->
      ignore
        (Astar.route ~residual ~latency_tables:tables ~src:0 ~dst:1
           ~bandwidth_mbps:0. ~latency_ms:1. ()))

let test_astar_respects_residual () =
  let cluster, e01, e12, _, _ = small_cluster () in
  let residual = Residual.create cluster in
  let tables = Latency_table.create cluster in
  (* Consume the fat path; a 50 Mbps request must now fail even with a
     loose latency bound (direct edge has only 10). *)
  let p = Path.make ~nodes:[ 0; 1; 2 ] ~edges:[ e01; e12 ] in
  (match Residual.reserve_path residual p 60. with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "saturated" true
    (Astar.route ~residual ~latency_tables:tables ~src:0 ~dst:2 ~bandwidth_mbps:50.
       ~latency_ms:60. ()
    = None)

(* Brute-force oracle: enumerate all simple paths, keep those within
   the latency bound whose every edge offers the bandwidth, and return
   the maximum bottleneck. *)
let brute_force_widest residual ~src ~dst ~bandwidth_mbps ~latency_ms =
  let cluster = Residual.cluster residual in
  let g = Cluster.graph cluster in
  let n = Graph.n_nodes g in
  let visited = Array.make n false in
  let best = ref None in
  let rec explore u lat width =
    if u = dst then begin
      match !best with
      | Some w when w >= width -> ()
      | _ -> best := Some width
    end
    else
      Graph.iter_adj g u (fun ~neighbor ~eid ->
          if not visited.(neighbor) then begin
            let link = Cluster.link cluster eid in
            let lat' = lat +. link.Link.latency_ms in
            let avail = Residual.available residual eid in
            if lat' <= latency_ms && avail >= bandwidth_mbps then begin
              visited.(neighbor) <- true;
              explore neighbor lat' (Float.min width avail);
              visited.(neighbor) <- false
            end
          end)
  in
  visited.(src) <- true;
  if src = dst then Some infinity
  else begin
    explore src 0. infinity;
    !best
  end

let prop_astar_optimal_bottleneck =
  QCheck.Test.make
    ~name:"A*Prune returns the maximum-bottleneck feasible path (vs brute force)"
    ~count:100 QCheck.small_nat
    (fun seed ->
      let rng = Hmn_rng.Rng.create (seed + 1000) in
      let cluster = random_cluster ~n:8 ~rng in
      let residual = Residual.create cluster in
      let tables = Latency_table.create cluster in
      let bandwidth_mbps = 5. +. (40. *. Hmn_rng.Rng.float rng) in
      let latency_ms = 5. +. (25. *. Hmn_rng.Rng.float rng) in
      let src = Hmn_rng.Rng.int rng ~bound:8 in
      let dst = Hmn_rng.Rng.int rng ~bound:8 in
      let oracle = brute_force_widest residual ~src ~dst ~bandwidth_mbps ~latency_ms in
      match
        ( Astar.route ~residual ~latency_tables:tables ~src ~dst ~bandwidth_mbps
            ~latency_ms (),
          oracle )
      with
      | None, None -> true
      | Some _, None | None, Some _ -> false
      | Some (p, _), Some w ->
        if src = dst then Path.is_intra_host p
        else
          let got = Path.bottleneck ~capacity:(Residual.available residual) p in
          Hmn_prelude.Float_ext.approx got w
          && Path.total_latency cluster p <= latency_ms +. 1e-9
          && Result.is_ok (Path.validate cluster ~src ~dst p))

let prop_astar_dominance_preserves_width =
  QCheck.Test.make
    ~name:"dominance pruning does not change the returned bottleneck" ~count:100
    QCheck.small_nat
    (fun seed ->
      let rng = Hmn_rng.Rng.create (seed + 2000) in
      let cluster = random_cluster ~n:9 ~rng in
      let residual = Residual.create cluster in
      let tables = Latency_table.create cluster in
      let bandwidth_mbps = 5. +. (40. *. Hmn_rng.Rng.float rng) in
      let latency_ms = 5. +. (25. *. Hmn_rng.Rng.float rng) in
      let width p = Path.bottleneck ~capacity:(Residual.available residual) p in
      match
        ( Astar.route ~residual ~latency_tables:tables ~src:0 ~dst:8 ~bandwidth_mbps
            ~latency_ms (),
          Astar.route ~prune_dominated:false ~residual ~latency_tables:tables ~src:0
            ~dst:8 ~bandwidth_mbps ~latency_ms () )
      with
      | None, None -> true
      | Some (a, _), Some (b, _) -> Hmn_prelude.Float_ext.approx (width a) (width b)
      | _ -> false)

(* ---- Dijkstra_route ---- *)

let test_dijkstra_route_min_latency () =
  let cluster, _, _, _, _ = small_cluster () in
  let residual = Residual.create cluster in
  (* 0->2 with modest bandwidth: the direct 1-hop (5 ms) edge wins over
     the 2-hop 10 ms detour — the opposite of A*Prune's choice. *)
  match
    Hmn_routing.Dijkstra_route.route ~residual ~src:0 ~dst:2 ~bandwidth_mbps:1.
      ~latency_ms:60. ()
  with
  | Some p -> Alcotest.(check int) "direct edge" 1 (Path.hop_count p)
  | None -> Alcotest.fail "expected a path"

let test_dijkstra_route_respects_bandwidth () =
  let cluster, _, _, _, _ = small_cluster () in
  let residual = Residual.create cluster in
  (* Demanding 50 Mbps excludes the 10 Mbps direct edge: detour. *)
  (match
     Hmn_routing.Dijkstra_route.route ~residual ~src:0 ~dst:2 ~bandwidth_mbps:50.
       ~latency_ms:60. ()
   with
  | Some p -> Alcotest.(check int) "detour" 2 (Path.hop_count p)
  | None -> Alcotest.fail "expected the detour");
  (* And with a 5 ms bound nothing qualifies. *)
  Alcotest.(check bool) "bound excludes detour" true
    (Hmn_routing.Dijkstra_route.route ~residual ~src:0 ~dst:2 ~bandwidth_mbps:50.
       ~latency_ms:5. ()
    = None)

let test_dijkstra_route_trivial () =
  let cluster, _, _, _, _ = small_cluster () in
  let residual = Residual.create cluster in
  match
    Hmn_routing.Dijkstra_route.route ~residual ~src:2 ~dst:2 ~bandwidth_mbps:1.
      ~latency_ms:0. ()
  with
  | Some p -> Alcotest.(check bool) "intra" true (Path.is_intra_host p)
  | None -> Alcotest.fail "expected the trivial path"

let prop_dijkstra_route_is_minimal_latency =
  QCheck.Test.make
    ~name:"Dijkstra route achieves the minimum feasible latency" ~count:100
    QCheck.small_nat
    (fun seed ->
      let rng = Hmn_rng.Rng.create (seed + 9000) in
      let cluster = random_cluster ~n:10 ~rng in
      let residual = Residual.create cluster in
      let bandwidth_mbps = 5. +. (40. *. Hmn_rng.Rng.float rng) in
      let src = Hmn_rng.Rng.int rng ~bound:10 in
      let dst = Hmn_rng.Rng.int rng ~bound:10 in
      (* Oracle: Dijkstra over the filtered graph. *)
      let g = Cluster.graph cluster in
      let weight eid =
        if Residual.available residual eid >= bandwidth_mbps then
          (Cluster.link cluster eid).Link.latency_ms
        else infinity
      in
      let best = (Hmn_graph.Dijkstra.run g ~weight ~src).Hmn_graph.Dijkstra.dist.(dst) in
      match
        Hmn_routing.Dijkstra_route.route ~residual ~src ~dst ~bandwidth_mbps
          ~latency_ms:1000. ()
      with
      | None -> best = infinity || src = dst
      | Some p ->
        if src = dst then Path.is_intra_host p
        else Hmn_prelude.Float_ext.approx (Path.total_latency cluster p) best)

let prop_landmark_tables_equal_direct_dijkstra =
  QCheck.Test.make
    ~name:"leaf-landmark tables are bit-identical to per-destination Dijkstra"
    ~count:20
    QCheck.(pair small_nat (int_range 2 3))
    (fun (seed, half_k) ->
      let k = 2 * half_k in
      let rng = Hmn_rng.Rng.create (seed + 7000) in
      (* Random host resources; per-tier latencies drawn from dyadic
         values so every path latency is an exact float and bit
         equality is the right check. *)
      let lat () = [| 1.25; 2.5; 5.; 10. |].(Hmn_rng.Rng.int rng ~bound:4) in
      let link = Link.make ~bandwidth_mbps:1000. ~latency_ms:(lat ()) in
      let agg_link = Link.make ~bandwidth_mbps:10_000. ~latency_ms:(lat ()) in
      let core_link = Link.make ~bandwidth_mbps:10_000. ~latency_ms:(lat ()) in
      let cluster =
        Hmn_testbed.Cluster_gen.fat_tree_cluster ~link ~agg_link ~core_link ~k
          ~rng ()
      in
      let tables = Latency_table.create cluster in
      Latency_table.precompute tables;
      let g = Cluster.graph cluster in
      let weight eid = (Cluster.link cluster eid).Link.latency_ms in
      (* First access switch: exercises the non-leaf fallback too. One
         scratch buffer swept over every destination. *)
      let switch = Cluster.n_hosts cluster in
      let scratch = Array.make (Graph.n_nodes g) 0. in
      Array.for_all
        (fun dst ->
          let tab = Latency_table.to_destination tables ~dst in
          Latency_table.fill tab scratch;
          scratch = Hmn_graph.Dijkstra.distances_to g ~weight ~dst)
        (Array.append (Cluster.host_ids cluster) [| switch |])
      (* one Dijkstra per access-switch landmark, plus the switch dst *)
      && Latency_table.dijkstras tables = Cluster.n_racks cluster + 1)

(* ---- arena engine (Route_ctx) ---- *)

(* Unique-path clusters for the tree fast path: a line 0-1-...-(n-1)
   and a star with hub 0, with non-dyadic latencies so that sums in
   different associations can round apart, and links wide enough that
   the latency test, not bandwidth, decides most queries. *)
let tree_cluster ~star ~n ~rng =
  let g = Graph.create ~n () in
  for v = 1 to n - 1 do
    ignore
      (Graph.add_edge g
         (if star then 0 else v - 1)
         v
         (Link.make
            ~bandwidth_mbps:(100. +. (900. *. Hmn_rng.Rng.float rng))
            ~latency_ms:(0.1 +. Hmn_rng.Rng.float rng)))
  done;
  Cluster.create ~nodes:(Array.init n host) ~graph:g

(* The engine's contract against the retained list-based copy in
   [Reference_astar]. The arena never generates a label at a degree-1
   node other than [dst] (such a label has no children), so:
   - when no node but [src] or [dst] has degree 1, the heap sees the
     same labels in the same order: every route is the old engine's
     route, and every searched route costs the same labels. Routes the
     tree fast path takes (the context's [fast_path_hits] moved)
     report zero search effort, so only their paths are compared;
   - otherwise ties among equal-key labels may resolve differently:
     the route exists exactly when the old one does and has the same
     (bottleneck width, latency, hop count) key. Without the Pareto
     cut it also costs no more generated labels (not a theorem, but
     it held on every one of the 50,000 inputs this generator can
     draw). With the cut on, the tie order decides which of two equal
     labels is recorded first, and a route can cost a label or two
     more than the old engine's (10 of the 482,590 such routes over
     those inputs), so only the key is compared there.
   Half the bounds are drawn at exactly the latency of the route found
   under an unbounded latency, where the fast path's feasibility test
   must round like the search does. The Clos shape (uniform links)
   makes equal-key ties the rule. The property churns the residual
   between queries (reserving each found path) so later queries run
   against partially drained links, and shares one context across
   every query so pool reuse itself is under test. *)
let prop_arena_engine_bit_identical =
  QCheck.Test.make
    ~name:
      "arena engine is bit-identical to the retained list engine without \
       dead ends, and key-identical with them"
    ~count:100
    QCheck.(pair (int_bound 9999) (int_range 0 4))
    (fun (seed, shape) ->
      let rng = Hmn_rng.Rng.create (seed + 11_000) in
      let cluster =
        match shape with
        | 0 -> random_cluster ~n:10 ~rng
        | 1 ->
          let lat () = [| 1.25; 2.5; 5.; 10. |].(Hmn_rng.Rng.int rng ~bound:4) in
          Hmn_testbed.Cluster_gen.fat_tree_cluster
            ~link:(Link.make ~bandwidth_mbps:1000. ~latency_ms:(lat ()))
            ~agg_link:(Link.make ~bandwidth_mbps:10_000. ~latency_ms:(lat ()))
            ~core_link:(Link.make ~bandwidth_mbps:10_000. ~latency_ms:(lat ()))
            ~k:4 ~rng ()
        | 4 ->
          let racks = 2 + Hmn_rng.Rng.int rng ~bound:4 in
          let hosts_per_rack = 2 + Hmn_rng.Rng.int rng ~bound:5 in
          let spines = 1 + Hmn_rng.Rng.int rng ~bound:4 in
          Hmn_testbed.Cluster_gen.clos_cluster
            ~link:(Link.make ~bandwidth_mbps:1000. ~latency_ms:5.)
            ~racks ~hosts_per_rack ~spines ~rng ()
        | _ ->
          tree_cluster ~star:(shape = 3) ~n:(3 + Hmn_rng.Rng.int rng ~bound:4) ~rng
      in
      let g = Cluster.graph cluster in
      let n = Graph.n_nodes g in
      let residual = Residual.create cluster in
      let tables = Latency_table.create cluster in
      let ctx = Hmn_routing.Route_ctx.create () in
      (* The search's own key: bottleneck width, latency summed left to
         right from 0 as labels accumulate it, hop count. *)
      let key (p : Path.t) =
        Array.fold_left
          (fun (w, l) e ->
            ( Float.min w (Residual.available residual e),
              l +. (Cluster.link cluster e).Link.latency_ms ))
          (infinity, 0.) p.Path.edges,
        Array.length p.Path.edges
      in
      let ok = ref true in
      for _ = 1 to 12 do
        let src = Hmn_rng.Rng.int rng ~bound:n in
        let dst = Hmn_rng.Rng.int rng ~bound:n in
        let bandwidth_mbps = 5. +. (40. *. Hmn_rng.Rng.float rng) in
        let latency_ms = 4. +. (40. *. Hmn_rng.Rng.float rng) in
        let prune_dominated = Hmn_rng.Rng.int rng ~bound:2 = 0 in
        let reference ~latency_ms =
          Reference_astar.route ~prune_dominated ~residual ~latency_tables:tables
            ~src ~dst ~bandwidth_mbps ~latency_ms ()
        in
        let latency_ms =
          if Hmn_rng.Rng.bool rng then
            match reference ~latency_ms:infinity with
            | Some (p, _) -> Path.total_latency cluster p
            | None -> latency_ms
          else latency_ms
        in
        let dead_ends =
          List.exists
            (fun v -> v <> src && v <> dst && Graph.degree g v = 1)
            (List.init n Fun.id)
        in
        let hits_before = Hmn_routing.Route_ctx.fast_path_hits ctx in
        let arena =
          Astar.route ~prune_dominated ~ctx ~residual ~latency_tables:tables ~src
            ~dst ~bandwidth_mbps ~latency_ms ()
        in
        let searched = Hmn_routing.Route_ctx.fast_path_hits ctx = hits_before in
        match (reference ~latency_ms, arena) with
        | None, None -> ()
        | Some (p0, s0), Some (p1, s1) ->
          let agrees =
            if dead_ends then
              key p0 = key p1
              && (prune_dominated
                 || s1.Astar.generated <= s0.Reference_astar.generated)
            else
              p0.Path.nodes = p1.Path.nodes
              && p0.Path.edges = p1.Path.edges
              && ((not searched)
                 || (s0.Reference_astar.expanded = s1.Astar.expanded
                    && s0.Reference_astar.generated = s1.Astar.generated))
          in
          if not agrees then ok := false;
          if not (Path.is_intra_host p1) then
            ignore (Residual.reserve_path residual p1 bandwidth_mbps)
        | _ -> ok := false
      done;
      !ok)

(* One context for every query while the clusters it routes on grow and
   then shrink (size 2, 3, 4, 3, 2 of a random torus, Clos or tree
   shape, so node counts strictly rise and fall). Per-node Pareto
   state is indexed by node id: a set surviving from an earlier search
   or cluster would prune a label it must not, and node arrays sized
   for a smaller cluster would fail. Each route, pruned or not, must
   equal a fresh context's in path and search statistics; found paths
   are reserved so later queries see drained links. *)
let prop_ctx_reuse_across_clusters =
  QCheck.Test.make
    ~name:"one context reused across growing and shrinking clusters routes like a fresh one"
    ~count:40 (QCheck.int_bound 9999)
    (fun seed ->
      let rng = Hmn_rng.Rng.create (seed + 12_000) in
      let ctx = Hmn_routing.Route_ctx.create () in
      let link () =
        Link.make ~bandwidth_mbps:100.
          ~latency_ms:[| 1.25; 2.5; 5. |].(Hmn_rng.Rng.int rng ~bound:3)
      in
      let cluster_of_size size =
        match Hmn_rng.Rng.int rng ~bound:3 with
        | 0 ->
          Hmn_testbed.Cluster_gen.torus_cluster ~link:(link ()) ~rows:size
            ~cols:size ~rng ()
        | 1 ->
          Hmn_testbed.Cluster_gen.clos_cluster ~link:(link ()) ~racks:size
            ~hosts_per_rack:size ~spines:2 ~rng ()
        | _ -> tree_cluster ~star:(Hmn_rng.Rng.bool rng) ~n:(size * size) ~rng
      in
      let stats (s : Astar.stats) = (s.Astar.expanded, s.Astar.generated) in
      List.for_all
        (fun size ->
          let cluster = cluster_of_size size in
          let n = Graph.n_nodes (Cluster.graph cluster) in
          let residual = Residual.create cluster in
          let tables = Latency_table.create cluster in
          List.for_all
            (fun _ ->
              let src = Hmn_rng.Rng.int rng ~bound:n in
              let dst = Hmn_rng.Rng.int rng ~bound:n in
              let bandwidth_mbps = 5. +. (40. *. Hmn_rng.Rng.float rng) in
              let latency_ms = 2. +. (12. *. Hmn_rng.Rng.float rng) in
              let prune_dominated = Hmn_rng.Rng.bool rng in
              let route ctx =
                Astar.route ~prune_dominated ~ctx ~residual ~latency_tables:tables
                  ~src ~dst ~bandwidth_mbps ~latency_ms ()
              in
              match (route ctx, route (Hmn_routing.Route_ctx.create ())) with
              | None, None -> true
              | Some (p, s), Some (q, s') ->
                if not (Path.is_intra_host p) then
                  ignore (Residual.reserve_path residual p bandwidth_mbps);
                p.Path.nodes = q.Path.nodes
                && p.Path.edges = q.Path.edges
                && stats s = stats s'
              | _ -> false)
            (List.init 10 Fun.id))
        [ 2; 3; 4; 3; 2 ])

(* Pareto-set bookkeeping on one node, driven directly: a recorded
   label unlinks the labels it dominates and keeps incomparable ones,
   and the next search starts with every set empty, including on a
   larger node range. *)
let test_ctx_pareto_set () =
  let module C = Hmn_routing.Route_ctx in
  let ctx = C.create () in
  C.reset_search ctx ~n_nodes:2;
  let record ~width ~lat =
    let id =
      C.add_label ctx ~parent:(-1) ~node:1 ~via:(-1) ~hops:1 ~width ~lat ~proj:lat
    in
    C.pareto_record ctx id;
    id
  in
  let members () =
    let rec go i acc = if i < 0 then acc else go ctx.C.pnext.(i) (i :: acc) in
    List.sort Int.compare (go ctx.C.phead.(1) [])
  in
  let a = record ~width:10. ~lat:5. in
  let b = record ~width:20. ~lat:9. in
  Alcotest.(check (list int)) "incomparable labels both kept" [ a; b ] (members ());
  Alcotest.(check bool) "dominated by a" true
    (C.pareto_dominated ctx 1 ~width:10. ~lat:6.);
  Alcotest.(check bool) "dominated by b" true
    (C.pareto_dominated ctx 1 ~width:15. ~lat:9.);
  Alcotest.(check bool) "not dominated" false
    (C.pareto_dominated ctx 1 ~width:15. ~lat:6.);
  Alcotest.(check bool) "other node empty" false
    (C.pareto_dominated ctx 0 ~width:0. ~lat:infinity);
  let c = record ~width:20. ~lat:7. in
  Alcotest.(check (list int)) "c unlinks b only" [ a; c ] (members ());
  let d = record ~width:20. ~lat:5. in
  Alcotest.(check (list int)) "d unlinks the rest" [ d ] (members ());
  C.reset_search ctx ~n_nodes:2;
  Alcotest.(check bool) "reset empties the set" false
    (C.pareto_dominated ctx 1 ~width:0. ~lat:infinity);
  C.reset_search ctx ~n_nodes:5;
  Alcotest.(check bool) "grown node range starts empty" false
    (C.pareto_dominated ctx 4 ~width:0. ~lat:infinity)

let test_ctx_dead_end_leaves () =
  (* A small Clos: hosts 0, 1 on leaf 4 and hosts 2, 3 on leaf 5, both
     leaves wired to spines 6 and 7, all links 1 ms. Every link is
     1000 Mbps except the destination's downlink 5-2 (100 Mbps), so
     every 1000-wide label outranks the goal and is expanded first.
     The old engine then also labels the leaf hosts 1 and 3, which
     have no children; the arena must not. *)
  let g = Graph.create ~n:8 () in
  let mk bw = Link.make ~bandwidth_mbps:bw ~latency_ms:1. in
  List.iter
    (fun (u, v, bw) -> ignore (Graph.add_edge g u v (mk bw)))
    [ (0, 4, 1000.); (1, 4, 1000.); (2, 5, 100.); (3, 5, 1000.);
      (4, 6, 1000.); (4, 7, 1000.); (5, 6, 1000.); (5, 7, 1000.) ];
  let nodes =
    Array.init 8 (fun i ->
        if i < 4 then host i else Node.switch ~name:(Printf.sprintf "s%d" i))
  in
  let cluster = Cluster.create ~nodes ~graph:g in
  let residual = Residual.create cluster in
  let tables = Latency_table.create cluster in
  (* By hand, with the Pareto cut: labels at 0, leaf 4, spines 6 and
     7, leaf 5 (via 6; the copy via 7 ties it and is dominated) and
     the goal 2 -- six, none at a leaf host. The old engine adds
     hosts 1 and 3. *)
  match
    ( Astar.route ~residual ~latency_tables:tables ~src:0 ~dst:2 ~bandwidth_mbps:10.
        ~latency_ms:60. (),
      Reference_astar.route ~residual ~latency_tables:tables ~src:0 ~dst:2
        ~bandwidth_mbps:10. ~latency_ms:60. () )
  with
  | Some (p, s), Some (p0, s0) ->
    Alcotest.(check (array int)) "same path" p0.Path.nodes p.Path.nodes;
    Alcotest.(check int) "generated by hand" 6 s.Astar.generated;
    Alcotest.(check int) "old engine labels both leaves" 8 s0.Reference_astar.generated
  | _ -> Alcotest.fail "expected a route"

let test_ctx_tree_fast_path () =
  (* A pure line 0-1-2-3: every route is forced, so the fast path must
     resolve it with zero search effort and the exact path the search
     would return. *)
  let g = Graph.create ~n:4 () in
  let mk () = Link.make ~bandwidth_mbps:100. ~latency_ms:5. in
  ignore (Graph.add_edge g 0 1 (mk ()));
  ignore (Graph.add_edge g 1 2 (mk ()));
  ignore (Graph.add_edge g 2 3 (mk ()));
  let cluster = Cluster.create ~nodes:(Array.init 4 host) ~graph:g in
  let residual = Residual.create cluster in
  let tables = Latency_table.create cluster in
  let ctx = Hmn_routing.Route_ctx.create () in
  (match
     Astar.route ~ctx ~residual ~latency_tables:tables ~src:0 ~dst:3
       ~bandwidth_mbps:10. ~latency_ms:60. ()
   with
  | Some (p, s) ->
    Alcotest.(check bool) "forced path" true (p.Path.nodes = [| 0; 1; 2; 3 |]);
    Alcotest.(check int) "no expansions" 0 s.Astar.expanded;
    Alcotest.(check int) "no pushes" 0 s.Astar.generated
  | None -> Alcotest.fail "expected the line path");
  Alcotest.(check int) "fast path hit" 1 (Hmn_routing.Route_ctx.fast_path_hits ctx);
  (* The unique path cannot carry 200 Mbps: the fast path must prove
     infeasibility, not fall through to a search. *)
  Alcotest.(check bool) "infeasible" true
    (Astar.route ~ctx ~residual ~latency_tables:tables ~src:0 ~dst:3
       ~bandwidth_mbps:200. ~latency_ms:60. ()
    = None);
  Alcotest.(check int) "infeasible also counted" 2
    (Hmn_routing.Route_ctx.fast_path_hits ctx);
  (* Exceeding the latency bound along the forced path is likewise
     final. *)
  Alcotest.(check bool) "latency infeasible" true
    (Astar.route ~ctx ~residual ~latency_tables:tables ~src:0 ~dst:3
       ~bandwidth_mbps:10. ~latency_ms:10. ()
    = None)

let test_ctx_fast_path_rounds_like_search () =
  (* Line 0-1-2-3-4 whose left-to-right latency sum is exactly within
     the bound, while the search's per-hop test acc + ar(v) rounds
     above it at some hop, so the search finds nothing. The forced path
     must be judged by the search's test, not by its total. *)
  let lats = [| 0.85000000000000009; 0.68000000000000005; 0.88; 0.11 |] in
  let g = Graph.create ~n:5 () in
  Array.iteri
    (fun i l ->
      ignore
        (Graph.add_edge g i (i + 1) (Link.make ~bandwidth_mbps:100. ~latency_ms:l)))
    lats;
  let cluster = Cluster.create ~nodes:(Array.init 5 host) ~graph:g in
  let residual = Residual.create cluster in
  let tables = Latency_table.create cluster in
  let latency_ms = 2.52 in
  Alcotest.(check bool) "path total within the bound" true
    (Array.fold_left ( +. ) 0. lats <= latency_ms);
  let route ~latency_ms () =
    Reference_astar.route ~residual ~latency_tables:tables ~src:0 ~dst:4
      ~bandwidth_mbps:10. ~latency_ms ()
  in
  Alcotest.(check bool) "reference search finds nothing" true
    (route ~latency_ms () = None);
  let ctx = Hmn_routing.Route_ctx.create () in
  Alcotest.(check bool) "fast path agrees" true
    (Astar.route ~ctx ~residual ~latency_tables:tables ~src:0 ~dst:4
       ~bandwidth_mbps:10. ~latency_ms ()
    = None);
  Alcotest.(check int) "decided by the fast path" 1
    (Hmn_routing.Route_ctx.fast_path_hits ctx)

let test_ctx_fast_path_meets_at_hub () =
  (* Star: leaves 1..3 hang off hub 0 — the two forced walks meet at
     the hub (the same-rack src -> switch -> dst shape). *)
  let g = Graph.create ~n:4 () in
  let mk () = Link.make ~bandwidth_mbps:100. ~latency_ms:5. in
  ignore (Graph.add_edge g 0 1 (mk ()));
  ignore (Graph.add_edge g 0 2 (mk ()));
  ignore (Graph.add_edge g 0 3 (mk ()));
  let cluster = Cluster.create ~nodes:(Array.init 4 host) ~graph:g in
  let residual = Residual.create cluster in
  let tables = Latency_table.create cluster in
  let ctx = Hmn_routing.Route_ctx.create () in
  (match
     Astar.route ~ctx ~residual ~latency_tables:tables ~src:1 ~dst:3
       ~bandwidth_mbps:10. ~latency_ms:60. ()
   with
  | Some (p, s) ->
    Alcotest.(check bool) "through the hub" true (p.Path.nodes = [| 1; 0; 3 |]);
    Alcotest.(check int) "no expansions" 0 s.Astar.expanded
  | None -> Alcotest.fail "expected the hub path");
  Alcotest.(check int) "fast path hit" 1 (Hmn_routing.Route_ctx.fast_path_hits ctx)

let test_ctx_fast_path_declines_ambiguity () =
  (* small_cluster's 0 and 2 both have degree >= 2: no forced walk
     applies and the fast path must hand over to the search, which
     still picks the widest (2-hop) route. *)
  let cluster, _, _, _, _ = small_cluster () in
  let residual = Residual.create cluster in
  let tables = Latency_table.create cluster in
  let ctx = Hmn_routing.Route_ctx.create () in
  (match
     Astar.route ~ctx ~residual ~latency_tables:tables ~src:0 ~dst:2
       ~bandwidth_mbps:10. ~latency_ms:60. ()
   with
  | Some (p, s) ->
    Alcotest.(check int) "widest detour" 2 (Path.hop_count p);
    Alcotest.(check bool) "searched" true (s.Astar.expanded > 0)
  | None -> Alcotest.fail "expected a path");
  Alcotest.(check int) "no fast path hit" 0
    (Hmn_routing.Route_ctx.fast_path_hits ctx)

(* ---- Dfs_route ---- *)

let test_dfs_finds_feasible () =
  let cluster, _, _, _, _ = small_cluster () in
  let residual = Residual.create cluster in
  match Dfs.route ~residual ~src:0 ~dst:3 ~bandwidth_mbps:5. ~latency_ms:60. () with
  | Some p ->
    Alcotest.(check bool) "valid" true
      (Result.is_ok (Path.validate cluster ~src:0 ~dst:3 p));
    Alcotest.(check bool) "within latency" true (Path.total_latency cluster p <= 60.)
  | None -> Alcotest.fail "expected a path"

let test_dfs_latency_bound () =
  let cluster, _, _, _, _ = small_cluster () in
  let residual = Residual.create cluster in
  (* 0->3 needs at least 2 hops (10 ms); bound 5 ms is infeasible. *)
  Alcotest.(check bool) "infeasible" true
    (Dfs.route ~residual ~src:0 ~dst:3 ~bandwidth_mbps:1. ~latency_ms:5. () = None)

let test_dfs_step_budget () =
  let cluster, _, _, _, _ = small_cluster () in
  let residual = Residual.create cluster in
  (* Destination 3 is two hops away; a 1-expansion budget cannot reach
     it. *)
  Alcotest.(check bool) "budget exhausts" true
    (Dfs.route ~max_steps:1 ~residual ~src:0 ~dst:3 ~bandwidth_mbps:1.
       ~latency_ms:1000. ()
    = None);
  Alcotest.(check bool) "enough budget succeeds" true
    (Dfs.route ~max_steps:1000 ~residual ~src:0 ~dst:3 ~bandwidth_mbps:1.
       ~latency_ms:1000. ()
    <> None)

let prop_dfs_paths_always_valid =
  QCheck.Test.make ~name:"DFS paths satisfy the constraints they were asked for"
    ~count:100 QCheck.small_nat
    (fun seed ->
      let rng = Hmn_rng.Rng.create (seed + 3000) in
      let cluster = random_cluster ~n:10 ~rng in
      let residual = Residual.create cluster in
      let bandwidth_mbps = 5. +. (40. *. Hmn_rng.Rng.float rng) in
      let latency_ms = 5. +. (30. *. Hmn_rng.Rng.float rng) in
      let src = Hmn_rng.Rng.int rng ~bound:10 in
      let dst = Hmn_rng.Rng.int rng ~bound:10 in
      match Dfs.route ~rng ~residual ~src ~dst ~bandwidth_mbps ~latency_ms () with
      | None ->
        (* DFS is complete (no budget here): if it fails, the oracle
           must fail too. *)
        brute_force_widest residual ~src ~dst ~bandwidth_mbps ~latency_ms = None
      | Some p ->
        if src = dst then Path.is_intra_host p
        else
          Result.is_ok (Path.validate cluster ~src ~dst p)
          && Path.total_latency cluster p <= latency_ms +. 1e-9
          && Path.bottleneck ~capacity:(Residual.available residual) p
             >= bandwidth_mbps)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "hmn_routing"
    [
      ( "path",
        [
          Alcotest.test_case "basics" `Quick test_path_basics;
          Alcotest.test_case "make errors" `Quick test_path_make_errors;
          Alcotest.test_case "validate (Eqs. 4-7)" `Quick test_path_validate;
        ] );
      ( "residual",
        [
          Alcotest.test_case "reserve/release" `Quick test_residual_reserve_release;
          Alcotest.test_case "atomic failure" `Quick test_residual_atomic_failure;
          Alcotest.test_case "release overflow" `Quick test_residual_release_overflow;
          Alcotest.test_case "overcommit bounded by one tolerance" `Quick
            test_residual_overcommit_bounded;
          Alcotest.test_case "copy & utilization" `Quick
            test_residual_copy_and_utilization;
          Alcotest.test_case "zero-capacity utilization" `Quick
            test_utilization_zero_capacity_link;
        ] );
      ( "latency_table",
        [ Alcotest.test_case "table & cache" `Quick test_latency_table ] );
      ( "astar_prune",
        [
          Alcotest.test_case "widest choice" `Quick test_astar_widest_choice;
          Alcotest.test_case "latency forces direct" `Quick
            test_astar_latency_forces_direct;
          Alcotest.test_case "bandwidth pruning" `Quick test_astar_bandwidth_prunes;
          Alcotest.test_case "trivial & errors" `Quick test_astar_trivial_and_errors;
          Alcotest.test_case "respects residual" `Quick test_astar_respects_residual;
        ] );
      ( "route_ctx",
        [
          Alcotest.test_case "tree fast path on a line" `Quick
            test_ctx_tree_fast_path;
          Alcotest.test_case "no labels at dead-end leaves" `Quick
            test_ctx_dead_end_leaves;
          Alcotest.test_case "fast path rounds like the search" `Quick
            test_ctx_fast_path_rounds_like_search;
          Alcotest.test_case "fast path meets at hub" `Quick
            test_ctx_fast_path_meets_at_hub;
          Alcotest.test_case "fast path declines ambiguity" `Quick
            test_ctx_fast_path_declines_ambiguity;
          Alcotest.test_case "pareto set links and unlinks" `Quick
            test_ctx_pareto_set;
        ] );
      ( "dijkstra_route",
        [
          Alcotest.test_case "min latency" `Quick test_dijkstra_route_min_latency;
          Alcotest.test_case "respects bandwidth" `Quick
            test_dijkstra_route_respects_bandwidth;
          Alcotest.test_case "trivial" `Quick test_dijkstra_route_trivial;
        ] );
      ( "dfs_route",
        [
          Alcotest.test_case "finds feasible" `Quick test_dfs_finds_feasible;
          Alcotest.test_case "latency bound" `Quick test_dfs_latency_bound;
          Alcotest.test_case "step budget" `Quick test_dfs_step_budget;
        ] );
      ( "properties",
        [
          q prop_residual_round_trip;
          q prop_residual_reserve_atomic;
          q prop_astar_optimal_bottleneck;
          q prop_astar_dominance_preserves_width;
          q prop_dfs_paths_always_valid;
          q prop_dijkstra_route_is_minimal_latency;
          q prop_landmark_tables_equal_direct_dijkstra;
          q prop_arena_engine_bit_identical;
          q prop_ctx_reuse_across_clusters;
        ] );
    ]
