(* Tests for hmn_validate: the independent invariant oracle and the
   differential fuzz harness. The validator must accept every mapping
   the real heuristics produce, and reject a hand-corrupted view for
   each violation class — capacity overflow, disconnected / non-simple
   / reversed paths, latency violations, bandwidth overflow, residual
   drift and a wrong load-balance factor. The single-mapping and the
   multi-tenant checks must agree on one tenant. *)

module Graph = Hmn_graph.Graph
module Cluster = Hmn_testbed.Cluster
module Node = Hmn_testbed.Node
module Link = Hmn_testbed.Link
module Resources = Hmn_testbed.Resources
module Guest = Hmn_vnet.Guest
module Vlink = Hmn_vnet.Vlink
module Virtual_env = Hmn_vnet.Virtual_env
module Problem = Hmn_mapping.Problem
module Placement = Hmn_mapping.Placement
module Link_map = Hmn_mapping.Link_map
module Mapping = Hmn_mapping.Mapping
module Path = Hmn_routing.Path
module Residual = Hmn_routing.Residual
module Validator = Hmn_validate.Validator
module Fuzz = Hmn_validate.Fuzz

let host i =
  Node.host
    ~name:(Printf.sprintf "h%d" i)
    ~capacity:(Resources.make ~mips:1000. ~mem_mb:1024. ~stor_gb:100.)

(* A line of four hosts plus a trailing switch:
     0 -- 1 -- 2 -- 3 -- 4(switch), all links 100 Mbps / 5 ms. *)
let fixture_cluster () =
  let g = Graph.create ~n:5 () in
  let mk () = Link.make ~bandwidth_mbps:100. ~latency_ms:5. in
  let e01 = Graph.add_edge g 0 1 (mk ()) in
  let e12 = Graph.add_edge g 1 2 (mk ()) in
  let e23 = Graph.add_edge g 2 3 (mk ()) in
  let e34 = Graph.add_edge g 3 4 (mk ()) in
  let nodes =
    Array.init 5 (fun i -> if i = 4 then Node.switch ~name:"sw" else host i)
  in
  (Cluster.create ~nodes ~graph:g, e01, e12, e23, e34)

(* Three guests; vlink 0 joins guests 0-1, vlink 1 joins guests 1-2. *)
let fixture_venv ~bw ~lat =
  let g = Graph.create ~n:3 () in
  ignore (Graph.add_edge g 0 1 (Vlink.make ~bandwidth_mbps:bw ~latency_ms:lat));
  ignore (Graph.add_edge g 1 2 (Vlink.make ~bandwidth_mbps:bw ~latency_ms:lat));
  let guests =
    Array.init 3 (fun i ->
        Guest.make
          ~name:(Printf.sprintf "vm%d" i)
          ~demand:(Resources.make ~mips:100. ~mem_mb:400. ~stor_gb:10.))
  in
  Virtual_env.create ~guests ~graph:g

let fixture ?(bw = 10.) ?(lat = 20.) () =
  let cluster, e01, e12, e23, e34 = fixture_cluster () in
  let venv = fixture_venv ~bw ~lat in
  (Problem.make ~cluster ~venv, e01, e12, e23, e34)

let ok_exn = function Ok () -> () | Error e -> Alcotest.fail e

(* guests 0,1 on hosts 0,1; guest 2 shares host 1, so vlink 1 is
   intra-host and only vlink 0 needs a (one-hop) path. *)
let valid_mapping problem e01 =
  let placement = Placement.create problem in
  ok_exn (Placement.assign placement ~guest:0 ~host:0);
  ok_exn (Placement.assign placement ~guest:1 ~host:1);
  ok_exn (Placement.assign placement ~guest:2 ~host:1);
  let link_map = Link_map.create problem in
  ok_exn (Link_map.assign link_map ~vlink:0 (Path.make ~nodes:[ 0; 1 ] ~edges:[ e01 ]));
  Mapping.make ~placement ~link_map

let labels report =
  List.map Validator.violation_label report.Validator.violations

let check_flags ~expected view =
  let report = Validator.check_view view in
  Alcotest.(check bool)
    (Printf.sprintf "%s flagged (got: %s)" expected
       (String.concat ", " (labels report)))
    true
    (List.mem expected (labels report))

(* ---- the valid mapping passes ---- *)

let test_accepts_valid () =
  let problem, e01, _, _, _ = fixture () in
  let m = valid_mapping problem e01 in
  let report = Validator.check m in
  Alcotest.(check (list string)) "no violations" [] (labels report);
  Alcotest.(check bool) "is_valid" true (Validator.is_valid m);
  Alcotest.(check int) "guests checked" 3 report.Validator.guests_checked;
  Alcotest.(check int) "vlinks checked" 2 report.Validator.vlinks_checked;
  match report.Validator.derived_lbf with
  | None -> Alcotest.fail "expected a derived LBF for a complete placement"
  | Some lbf ->
    Alcotest.(check (float 1e-6)) "derived = stated" (Mapping.objective m) lbf

(* ---- seeded corruption classes ---- *)

let base_view problem =
  {
    Validator.problem;
    host_of = (fun _ -> None);
    path_of = (fun _ -> None);
    residual_available = None;
    stated_lbf = None;
  }

let test_flags_unassigned () =
  let problem, _, _, _, _ = fixture () in
  check_flags ~expected:"unassigned-guest" (base_view problem)

let test_flags_non_host () =
  let problem, _, _, _, _ = fixture () in
  (* Node 4 is the switch. *)
  check_flags ~expected:"guest-on-non-host"
    { (base_view problem) with host_of = (fun _ -> Some 4) }

let test_flags_capacity_overflow () =
  let problem, _, _, _, _ = fixture () in
  (* All three guests on host 0: 1200 MB of demand in 1024 MB. *)
  let view = { (base_view problem) with host_of = (fun _ -> Some 0) } in
  check_flags ~expected:"memory-exceeded" view

let test_flags_unmapped_vlink () =
  let problem, _, _, _, _ = fixture () in
  let view =
    { (base_view problem) with host_of = (fun g -> Some (min g 2)) }
    (* guests on hosts 0,1,2: both vlinks inter-host, no paths given *)
  in
  check_flags ~expected:"unmapped-vlink" view

let test_flags_disconnected_path () =
  let problem, e01, e12, _, _ = fixture () in
  let view =
    {
      (base_view problem) with
      host_of = (fun g -> Some (min g 2));
      path_of =
        (fun vlink ->
          if vlink = 0 then
            (* e01 joins 0-1, not the stated hop 0-2. *)
            Some (Path.make ~nodes:[ 0; 2 ] ~edges:[ e01 ])
          else Some (Path.make ~nodes:[ 1; 2 ] ~edges:[ e12 ]));
    }
  in
  check_flags ~expected:"disconnected-path" view

let test_flags_non_simple_path () =
  let problem, e01, e12, _, _ = fixture () in
  let view =
    {
      (base_view problem) with
      host_of = (fun g -> Some (min g 2));
      path_of =
        (fun vlink ->
          if vlink = 0 then
            Some (Path.make ~nodes:[ 0; 1; 0; 1 ] ~edges:[ e01; e01; e01 ])
          else Some (Path.make ~nodes:[ 1; 2 ] ~edges:[ e12 ]));
    }
  in
  check_flags ~expected:"path-not-simple" view

let test_flags_endpoint_mismatch () =
  let problem, _, e12, _, _ = fixture () in
  let view =
    {
      (base_view problem) with
      host_of = (fun g -> Some (min g 2));
      (* vlink 0 joins guests on hosts 0 and 1 but the path runs 1-2. *)
      path_of = (fun _ -> Some (Path.make ~nodes:[ 1; 2 ] ~edges:[ e12 ]));
    }
  in
  check_flags ~expected:"endpoint-mismatch" view

(* Eqs. 4-5 orient a path: from the host of the link's first guest to
   the host of its second. The valid mapping's one path, reversed. *)
let test_flags_reversed_path () =
  let problem, e01, _, _, _ = fixture () in
  let m = valid_mapping problem e01 in
  let view =
    {
      (base_view problem) with
      host_of = (Validator.view_of_mapping m).Validator.host_of;
      path_of =
        (fun vlink ->
          if vlink = 0 then Some (Path.make ~nodes:[ 1; 0 ] ~edges:[ e01 ]) else None);
    }
  in
  Alcotest.(check (list string)) "only the orientation is wrong"
    [ "endpoint-mismatch" ]
    (labels (Validator.check_view view))

let test_flags_latency () =
  (* Bound of 10 ms; the only offered path for vlink 0 runs 0-1-2-3 at
     15 ms. Guests 0 and 1 are placed at the path's ends so the
     endpoints are consistent and only the latency is wrong. *)
  let problem, e01, e12, e23, _ = fixture ~lat:10. () in
  let view =
    {
      (base_view problem) with
      host_of = (fun g -> if g = 0 then Some 0 else Some 3);
      path_of =
        (fun vlink ->
          if vlink = 0 then
            Some (Path.make ~nodes:[ 0; 1; 2; 3 ] ~edges:[ e01; e12; e23 ])
          else None);
    }
  in
  check_flags ~expected:"latency-exceeded" view

let test_flags_bandwidth_overflow () =
  (* Two 80 Mbps vlinks forced over the same 100 Mbps cable. *)
  let problem, e01, _, _, _ = fixture ~bw:80. () in
  let view =
    {
      (base_view problem) with
      host_of = (fun g -> Some (g mod 2));  (* guests 0,2 on host 0; 1 on 1 *)
      path_of = (fun _ -> Some (Path.make ~nodes:[ 0; 1 ] ~edges:[ e01 ]));
    }
  in
  check_flags ~expected:"bandwidth-exceeded" view

(* Eq. 9 grants the §6.1 ledger tolerance, [Residual.tolerance] per
   routed link plus one: two links that overcommit one 100 Mbps cable
   by half of it pass, by twice it fail. *)
let test_bandwidth_tolerance () =
  let labels_at over =
    let bw = (100. +. over) /. 2. in
    let problem, e01, _, _, _ = fixture ~bw () in
    let tol = Validator.residual_tolerance problem in
    Alcotest.(check (float 0.)) "two links' tolerance" (3. *. Residual.tolerance) tol;
    let view =
      {
        (base_view problem) with
        host_of = (fun g -> Some (g mod 2));  (* guests 0,2 on host 0; 1 on 1 *)
        path_of =
          (fun vlink ->
            (* vlink 0 runs host 0 -> 1, vlink 1 host 1 -> 0 *)
            if vlink = 0 then Some (Path.make ~nodes:[ 0; 1 ] ~edges:[ e01 ])
            else Some (Path.make ~nodes:[ 1; 0 ] ~edges:[ e01 ]));
      }
    in
    labels (Validator.check_view view)
  in
  let tol = 3. *. Residual.tolerance in
  Alcotest.(check (list string)) "just inside" [] (labels_at (0.5 *. tol));
  Alcotest.(check (list string)) "just past" [ "bandwidth-exceeded" ]
    (labels_at (2. *. tol))

let test_flags_residual_mismatch () =
  let problem, e01, _, _, _ = fixture () in
  let m = valid_mapping problem e01 in
  let view =
    {
      (Validator.view_of_mapping m) with
      Validator.residual_available = Some (fun _ -> 999.);
    }
  in
  check_flags ~expected:"residual-mismatch" view

let test_flags_wrong_lbf () =
  let problem, e01, _, _, _ = fixture () in
  let m = valid_mapping problem e01 in
  let view =
    {
      (Validator.view_of_mapping m) with
      Validator.stated_lbf = Some (Mapping.objective m +. 10.);
    }
  in
  check_flags ~expected:"objective-mismatch" view

(* A live-state corruption end to end: reserve extra bandwidth directly
   on the link map's residual, which no per-path reconstruction can
   explain. check (not check_view) must see it. *)
let test_residual_drift_detected_on_mapping () =
  let problem, e01, _, e23, _ = fixture () in
  let m = valid_mapping problem e01 in
  let residual = Link_map.residual m.Mapping.link_map in
  (match Residual.reserve_path residual (Path.make ~nodes:[ 2; 3 ] ~edges:[ e23 ]) 5. with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let report = Validator.check m in
  Alcotest.(check bool) "drift flagged" true
    (List.mem "residual-mismatch" (labels report))

(* ---- properties ---- *)

(* Every mapping any registered heuristic produces on a random instance
   passes the oracle. This is the differential test the fuzz harness
   runs at scale; a small pinned sample keeps runtest fast. *)
let prop_mappers_produce_valid_mappings =
  QCheck.Test.make ~name:"registry mappings satisfy the oracle on random instances"
    ~count:15 QCheck.small_nat
    (fun seed ->
      let case_seed = 5000 + seed in
      let params = Fuzz.draw_params (Hmn_rng.Rng.create case_seed) in
      let problem = Fuzz.build_problem params ~seed:case_seed in
      List.for_all
        (fun mapper ->
          let rng = Hmn_rng.Rng.create (case_seed + 1) in
          match (mapper.Hmn_core.Mapper.run ~rng problem).Hmn_core.Mapper.result with
          | Error _ -> true
          | Ok mapping -> (Validator.check mapping).Validator.violations = [])
        (Hmn_core.Registry.all ~max_tries:20 ()))

(* Up to three seeded corruptions of a mapping's view: a guest moved to
   a random node (a switch or out of range included) or unassigned,
   every other guest crowded onto one node, a path dropped, reversed,
   looped back to its start, or swapped for another link's, all guests
   split over the two ends of one routed path that then carries every
   link between them, in either direction, and the physical links
   squeezed to a thousandth of their bandwidth at thrice their
   latency. *)
let corrupt_view rng (view : Validator.view) =
  let module Rng = Hmn_rng.Rng in
  let problem = view.Validator.problem in
  let venv = problem.Problem.venv in
  let n_nodes = Cluster.n_nodes problem.Problem.cluster in
  let n_guests = Virtual_env.n_guests venv in
  let n_vlinks = Virtual_env.n_vlinks venv in
  let hosts = Hashtbl.create 4 and paths = Hashtbl.create 4 in
  let cluster = ref problem.Problem.cluster in
  let routed vlink =
    match view.Validator.path_of vlink with
    | Some p when Path.hop_count p > 0 -> Some p
    | _ -> None
  in
  let list = Array.to_list in
  for _ = 1 to Rng.int rng ~bound:4 do
    let vlink = Rng.int rng ~bound:(max 1 n_vlinks) in
    match Rng.int rng ~bound:8 with
    | 0 ->
      Hashtbl.replace hosts (Rng.int rng ~bound:n_guests)
        (if Rng.bool rng then None else Some (Rng.int rng ~bound:(n_nodes + 1)))
    | 1 ->
      let node = Some (Rng.int rng ~bound:n_nodes) in
      for guest = 0 to n_guests - 1 do
        if guest mod 2 = 0 then Hashtbl.replace hosts guest node
      done
    | 2 -> Hashtbl.replace paths vlink None
    | 3 ->
      Option.iter
        (fun (p : Path.t) ->
          Hashtbl.replace paths vlink
            (Some
               (Path.make
                  ~nodes:(List.rev (list p.Path.nodes))
                  ~edges:(List.rev (list p.Path.edges)))))
        (routed vlink)
    | 4 ->
      Option.iter
        (fun (p : Path.t) ->
          Hashtbl.replace paths vlink
            (Some
               (Path.make
                  ~nodes:(list p.Path.nodes @ [ p.Path.nodes.(0) ])
                  ~edges:(list p.Path.edges @ [ p.Path.edges.(0) ]))))
        (routed vlink)
    | 5 ->
      Option.iter
        (fun p ->
          for guest = 0 to n_guests - 1 do
            Hashtbl.replace hosts guest
              (Some (if guest mod 2 = 0 then Path.src p else Path.dst p))
          done;
          for v = 0 to n_vlinks - 1 do
            let vs, vd = Virtual_env.endpoints venv v in
            Hashtbl.replace paths v (if (vs + vd) mod 2 = 1 then Some p else None)
          done)
        (routed vlink)
    | 6 ->
      let squeeze ~eid:_ (l : Link.t) =
        Link.make ~bandwidth_mbps:(l.Link.bandwidth_mbps /. 1000.)
          ~latency_ms:(3. *. l.Link.latency_ms)
      in
      cluster :=
        Cluster.create
          ~nodes:(Array.init n_nodes (Cluster.node !cluster))
          ~graph:(Graph.map_labels (Cluster.graph !cluster) ~f:squeeze)
    | _ ->
      Hashtbl.replace paths vlink
        (view.Validator.path_of (Rng.int rng ~bound:(max 1 n_vlinks)))
  done;
  let overlay tbl f x = match Hashtbl.find_opt tbl x with Some y -> y | None -> f x in
  {
    Validator.problem = Problem.make ~cluster:!cluster ~venv;
    host_of = overlay hosts view.Validator.host_of;
    path_of = overlay paths view.Validator.path_of;
    residual_available = None;
    stated_lbf = None;
  }

(* One mapping is one tenant: without the stated-state cross-checks the
   single-mapping and multi-tenant checks run the same passes, so they
   must flag the same violations. *)
let prop_view_matches_tenants =
  QCheck.Test.make ~name:"check_view and check_tenants agree on one tenant"
    ~count:40 QCheck.small_nat
    (fun seed ->
      let case_seed = 9000 + seed in
      let rng = Hmn_rng.Rng.create case_seed in
      let params = Fuzz.draw_params rng in
      let problem = Fuzz.build_problem params ~seed:case_seed in
      let hmn = Option.get (Hmn_core.Registry.find "HMN") in
      let view =
        match (hmn.Hmn_core.Mapper.run ~rng problem).Hmn_core.Mapper.result with
        | Ok mapping -> Validator.view_of_mapping mapping
        | Error _ -> base_view problem
      in
      let view = corrupt_view rng view in
      let single = List.sort compare (labels (Validator.check_view view)) in
      let multi =
        Validator.check_tenants ~cluster:view.Validator.problem.Problem.cluster
          ~tenants:
            [
              ( 0,
                {
                  Validator.venv = problem.Problem.venv;
                  t_host_of = view.Validator.host_of;
                  t_path_of = view.Validator.path_of;
                } );
            ]
          ()
      in
      let multi =
        List.concat_map snd multi.Validator.per_tenant @ multi.Validator.shared
        |> List.map Validator.violation_label
        |> List.sort compare
      in
      if single <> multi then
        QCheck.Test.fail_reportf "check_view [%s] <> check_tenants [%s]"
          (String.concat ", " single) (String.concat ", " multi);
      true)

(* The structural path pass as it was before it scanned each path's own
   earlier nodes: a fresh [Array.make n_nodes false] per path. Retained
   verbatim as the oracle for the property below. *)
let old_check_path_structure cluster ~vlink (p : Path.t) =
  let g = Cluster.graph cluster in
  let n_nodes = Graph.n_nodes g in
  let n_edges = Graph.n_edges g in
  let nodes = p.Path.nodes and edges = p.Path.edges in
  let defect = ref None in
  let flag v = if !defect = None then defect := Some v in
  Array.iter
    (fun u ->
      if u < 0 || u >= n_nodes then
        flag
          (Validator.Disconnected_path
             { vlink; reason = Printf.sprintf "node %d out of range" u }))
    nodes;
  if !defect = None then begin
    let seen = Array.make n_nodes false in
    Array.iter
      (fun u ->
        if seen.(u) then flag (Validator.Path_not_simple { vlink; node = u });
        seen.(u) <- true)
      nodes
  end;
  if !defect = None then
    Array.iteri
      (fun i eid ->
        if !defect = None then
          if eid < 0 || eid >= n_edges then
            flag
              (Validator.Disconnected_path
                 { vlink; reason = Printf.sprintf "edge %d out of range" eid })
          else begin
            let u, v = Graph.endpoints g eid in
            let a = nodes.(i) and b = nodes.(i + 1) in
            if not ((u = a && v = b) || (u = b && v = a)) then
              flag
                (Validator.Disconnected_path
                   {
                     vlink;
                     reason =
                       Printf.sprintf
                         "edge %d joins %d-%d, not the consecutive nodes %d-%d"
                         eid u v a b;
                   })
          end)
      edges;
  match !defect with Some v -> Error v | None -> Ok ()

(* Seeded corruptions of routed paths: looped back to an earlier node
   (once or twice), a node pushed out of range on either side, an edge
   swapped for another or out of range, two hops swapped, or a random
   walk of nodes. The path-local pass must give the old pass's verdict,
   down to the node a Path_not_simple names. Every other case is a
   40-host Clos, whose node ids pass 32, so distinct nodes share bits of
   the pass's 32-bit mask. *)
let prop_path_structure_matches_old =
  QCheck.Test.make ~name:"path structure pass agrees with the old per-node-array pass"
    ~count:60 QCheck.small_nat
    (fun seed ->
      let case_seed = 7000 + seed in
      let rng = Hmn_rng.Rng.create case_seed in
      let module Rng = Hmn_rng.Rng in
      let problem =
        if seed mod 2 = 0 then Fuzz.build_problem (Fuzz.draw_params rng) ~seed:case_seed
        else
          Hmn_experiments.Scale.problem ~shape:Hmn_experiments.Scale.Clos ~hosts:40
            ~ratio:1 ~seed:case_seed
      in
      let cluster = problem.Problem.cluster in
      let n_nodes = Cluster.n_nodes cluster in
      let n_edges = Graph.n_edges (Cluster.graph cluster) in
      let hmn = Option.get (Hmn_core.Registry.find "HMN") in
      match (hmn.Hmn_core.Mapper.run ~rng problem).Hmn_core.Mapper.result with
      | Error _ -> QCheck.assume_fail ()
      | Ok mapping ->
        let n_vlinks = Virtual_env.n_vlinks problem.Problem.venv in
        let corrupt (p : Path.t) =
          let nodes = Array.to_list p.Path.nodes and edges = Array.to_list p.Path.edges in
          let len = List.length nodes in
          let pick () = Rng.int rng ~bound:len in
          let set l i x = List.mapi (fun j y -> if j = i then x else y) l in
          let nodes, edges =
            match Rng.int rng ~bound:7 with
            | 0 ->
              let k = pick () in
              (nodes @ [ List.nth nodes k ], edges @ [ Rng.int rng ~bound:n_edges ])
            | 1 ->
              let a = pick () and b = pick () in
              ( nodes @ [ List.nth nodes a; List.nth nodes b ],
                edges @ [ Rng.int rng ~bound:n_edges; Rng.int rng ~bound:n_edges ] )
            | 2 ->
              ( set nodes (pick ())
                  (if Rng.bool rng then -1 - Rng.int rng ~bound:3 else n_nodes + Rng.int rng ~bound:3),
                edges )
            | 3 when edges <> [] ->
              let e = Rng.int rng ~bound:(List.length edges) in
              ( nodes,
                set edges e
                  (if Rng.bool rng then Rng.int rng ~bound:n_edges
                   else if Rng.bool rng then -1
                   else n_edges) )
            | 4 when len > 2 ->
              let i = Rng.int rng ~bound:(len - 1) in
              let a = List.nth nodes i and b = List.nth nodes (i + 1) in
              (set (set nodes i b) (i + 1) a, edges)
            | 5 ->
              let k = 1 + Rng.int rng ~bound:8 in
              ( List.init k (fun _ -> Rng.int rng ~bound:n_nodes),
                List.init (k - 1) (fun _ -> Rng.int rng ~bound:n_edges) )
            | _ -> (nodes, edges)
          in
          Path.make ~nodes ~edges
        in
        List.for_all
          (fun vlink ->
            match Link_map.path_of mapping.Mapping.link_map ~vlink with
            | None -> true
            | Some p ->
              let p = corrupt p in
              let fresh = Validator.check_path_structure cluster ~vlink p in
              fresh = old_check_path_structure cluster ~vlink p
              || QCheck.Test.fail_reportf "vlink %d: the two passes disagree" vlink)
          (List.init n_vlinks Fun.id))

let prop_fuzz_smoke_clean =
  QCheck.Test.make ~name:"fuzz harness finds nothing on a healthy build" ~count:3
    QCheck.small_nat
    (fun seed ->
      let stats = Fuzz.run ~seed:(Fuzz.smoke_seed + seed) ~count:2 () in
      stats.Fuzz.failures = [] && stats.Fuzz.cases = 2)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "hmn_validate"
    [
      ( "accepts",
        [ Alcotest.test_case "valid mapping passes" `Quick test_accepts_valid ] );
      ( "rejects",
        [
          Alcotest.test_case "unassigned guest" `Quick test_flags_unassigned;
          Alcotest.test_case "guest on non-host" `Quick test_flags_non_host;
          Alcotest.test_case "capacity overflow" `Quick test_flags_capacity_overflow;
          Alcotest.test_case "unmapped vlink" `Quick test_flags_unmapped_vlink;
          Alcotest.test_case "disconnected path" `Quick test_flags_disconnected_path;
          Alcotest.test_case "non-simple path" `Quick test_flags_non_simple_path;
          Alcotest.test_case "endpoint mismatch" `Quick test_flags_endpoint_mismatch;
          Alcotest.test_case "reversed path" `Quick test_flags_reversed_path;
          Alcotest.test_case "latency violation" `Quick test_flags_latency;
          Alcotest.test_case "bandwidth overflow" `Quick test_flags_bandwidth_overflow;
          Alcotest.test_case "bandwidth tolerance" `Quick test_bandwidth_tolerance;
          Alcotest.test_case "residual mismatch" `Quick test_flags_residual_mismatch;
          Alcotest.test_case "wrong LBF" `Quick test_flags_wrong_lbf;
          Alcotest.test_case "live residual drift" `Quick
            test_residual_drift_detected_on_mapping;
        ] );
      ( "properties",
        [
          q prop_mappers_produce_valid_mappings;
          q prop_fuzz_smoke_clean;
          q prop_view_matches_tenants;
          q prop_path_structure_matches_old;
        ] );
    ]
