(* Tests for hmn_testbed: resource vectors, VMM overhead, nodes, links,
   clusters and the topology builders of Table 1. *)

module Resources = Hmn_testbed.Resources
module Vmm = Hmn_testbed.Vmm
module Node = Hmn_testbed.Node
module Link = Hmn_testbed.Link
module Cluster = Hmn_testbed.Cluster
module Topology = Hmn_testbed.Topology
module Cluster_gen = Hmn_testbed.Cluster_gen
module Graph = Hmn_graph.Graph

let r ~mips ~mem ~stor = Resources.make ~mips ~mem_mb:mem ~stor_gb:stor

let some_hosts n =
  Array.init n (fun i ->
      Node.host ~name:(Printf.sprintf "h%d" i)
        ~capacity:(r ~mips:2000. ~mem:2048. ~stor:1000.))

(* ---- Resources ---- *)

let test_resources_arith () =
  let a = r ~mips:100. ~mem:10. ~stor:1. in
  let b = r ~mips:50. ~mem:5. ~stor:2. in
  let s = Resources.add a b in
  Alcotest.(check (float 1e-9)) "add mips" 150. s.Resources.mips;
  let d = Resources.sub a b in
  Alcotest.(check (float 1e-9)) "sub stor may go negative" (-1.) d.Resources.stor_gb;
  let k = Resources.scale 2. a in
  Alcotest.(check (float 1e-9)) "scale" 20. k.Resources.mem_mb;
  let total = Resources.sum [ a; b; a ] in
  Alcotest.(check (float 1e-9)) "sum" 250. total.Resources.mips;
  Alcotest.(check bool) "zero is identity" true
    (Resources.equal a (Resources.add a Resources.zero))

let test_resources_orders () =
  let big = r ~mips:2. ~mem:2. ~stor:2. in
  (* fits_mem_stor ignores CPU entirely (the paper's Eqs. 2-3). *)
  let cpu_hungry = r ~mips:1000. ~mem:1. ~stor:1. in
  Alcotest.(check bool) "CPU not a constraint" true
    (Resources.fits_mem_stor ~demand:cpu_hungry ~avail:big);
  let mem_hungry = r ~mips:0. ~mem:10. ~stor:1. in
  Alcotest.(check bool) "memory gates" false
    (Resources.fits_mem_stor ~demand:mem_hungry ~avail:big)

let test_resources_validation () =
  Alcotest.check_raises "negative" (Invalid_argument "Resources.make: bad mips")
    (fun () -> ignore (r ~mips:(-1.) ~mem:0. ~stor:0.));
  Alcotest.check_raises "nan" (Invalid_argument "Resources.make: bad mem_mb")
    (fun () -> ignore (r ~mips:0. ~mem:Float.nan ~stor:0.))

(* ---- Vmm ---- *)

let test_vmm_deduct () =
  let cap = r ~mips:1000. ~mem:1024. ~stor:100. in
  let eff = Vmm.deduct cap Vmm.xen_like in
  Alcotest.(check (float 1e-9)) "mips" 950. eff.Resources.mips;
  Alcotest.(check (float 1e-9)) "mem" 960. eff.Resources.mem_mb;
  Alcotest.(check (float 1e-9)) "stor" 96. eff.Resources.stor_gb;
  Alcotest.(check bool) "none is identity" true
    (Resources.equal cap (Vmm.deduct cap Vmm.none));
  (* Overhead larger than the host clamps at zero. *)
  let tiny = r ~mips:10. ~mem:10. ~stor:1. in
  let clamped = Vmm.deduct tiny Vmm.xen_like in
  Alcotest.(check (float 1e-9)) "clamped mips" 0. clamped.Resources.mips

(* ---- Node / Link ---- *)

let test_node () =
  let h = Node.host ~name:"x" ~capacity:(r ~mips:1. ~mem:1. ~stor:1.) in
  let s = Node.switch ~name:"sw" in
  Alcotest.(check bool) "host hosts" true (Node.can_host h);
  Alcotest.(check bool) "switch does not" false (Node.can_host s);
  Alcotest.(check bool) "switch has no capacity" true
    (Resources.equal Resources.zero s.Node.capacity)

let test_link () =
  Alcotest.(check (float 1e-9)) "gigabit bw" 1000. Link.gigabit.Link.bandwidth_mbps;
  Alcotest.(check (float 1e-9)) "gigabit lat" 5. Link.gigabit.Link.latency_ms;
  Alcotest.check_raises "zero bandwidth"
    (Invalid_argument "Link.make: bandwidth must be positive") (fun () ->
      ignore (Link.make ~bandwidth_mbps:0. ~latency_ms:1.));
  Alcotest.check_raises "negative latency"
    (Invalid_argument "Link.make: negative latency") (fun () ->
      ignore (Link.make ~bandwidth_mbps:1. ~latency_ms:(-1.)));
  Alcotest.check_raises "infinite bandwidth"
    (Invalid_argument "Link.make: non-finite value") (fun () ->
      ignore (Link.make ~bandwidth_mbps:Float.infinity ~latency_ms:1.));
  Alcotest.check_raises "NaN latency"
    (Invalid_argument "Link.make: non-finite value") (fun () ->
      ignore (Link.make ~bandwidth_mbps:1. ~latency_ms:Float.nan))

(* ---- Cluster ---- *)

let test_cluster_basics () =
  let cluster = Topology.ring ~hosts:(some_hosts 5) ~link:Link.gigabit in
  Alcotest.(check int) "nodes" 5 (Cluster.n_nodes cluster);
  Alcotest.(check int) "hosts" 5 (Cluster.n_hosts cluster);
  Alcotest.(check bool) "is_host" true (Cluster.is_host cluster 0);
  Alcotest.(check bool) "connected" true (Cluster.is_connected cluster);
  let total = Cluster.total_capacity cluster in
  Alcotest.(check (float 1e-9)) "total cpu" 10000. total.Resources.mips;
  Alcotest.(check (float 1e-9)) "link bw" 1000.
    (Cluster.link cluster 0).Link.bandwidth_mbps

let test_cluster_mismatch () =
  let graph = Hmn_graph.Generators.ring 4 in
  let graph = Graph.map_labels graph ~f:(fun ~eid:_ () -> Link.gigabit) in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Cluster.create: node array / graph size mismatch") (fun () ->
      ignore (Cluster.create ~nodes:(some_hosts 3) ~graph))

(* ---- Topology ---- *)

let test_topology_torus () =
  let cluster = Topology.torus ~hosts:(some_hosts 40) ~rows:5 ~cols:8 ~link:Link.gigabit in
  Alcotest.(check int) "hosts" 40 (Cluster.n_hosts cluster);
  Alcotest.(check int) "links" 80 (Graph.n_edges (Cluster.graph cluster));
  Alcotest.(check bool) "connected" true (Cluster.is_connected cluster);
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Topology.torus: rows * cols <> host count") (fun () ->
      ignore (Topology.torus ~hosts:(some_hosts 5) ~rows:2 ~cols:2 ~link:Link.gigabit))

let test_topology_switched_single () =
  (* 40 hosts on 64-port switches: one switch suffices. *)
  let cluster = Topology.switched ~hosts:(some_hosts 40) ~ports:64 ~link:Link.gigabit in
  Alcotest.(check int) "hosts" 40 (Cluster.n_hosts cluster);
  Alcotest.(check int) "one switch" 41 (Cluster.n_nodes cluster);
  Alcotest.(check int) "links = hosts" 40 (Graph.n_edges (Cluster.graph cluster));
  Alcotest.(check bool) "switch cannot host" false (Cluster.is_host cluster 40);
  Alcotest.(check bool) "connected" true (Cluster.is_connected cluster);
  (* Every host-to-host path is exactly 2 hops via the switch. *)
  let hops = Hmn_graph.Traversal.bfs_hops (Cluster.graph cluster) ~src:0 in
  for h = 1 to 39 do
    Alcotest.(check int) "2 hops" 2 hops.(h)
  done

let test_topology_switched_cascade () =
  (* 100 hosts on 8-port switches: chain capacity s*8-2(s-1) >= 100
     means 16 switches (6*14+2*7 = 98 < 100 with 16 -> check math via
     the function itself). *)
  let s = Topology.switches_needed ~n_hosts:100 ~ports:8 in
  Alcotest.(check bool) "capacity sufficient" true ((s * 8) - (2 * (s - 1)) >= 100);
  Alcotest.(check bool) "minimal" true (((s - 1) * 8) - (2 * (s - 2)) < 100);
  let cluster = Topology.switched ~hosts:(some_hosts 100) ~ports:8 ~link:Link.gigabit in
  Alcotest.(check int) "nodes" (100 + s) (Cluster.n_nodes cluster);
  Alcotest.(check int) "hosts" 100 (Cluster.n_hosts cluster);
  Alcotest.(check bool) "connected" true (Cluster.is_connected cluster);
  (* Port budget per switch is respected. *)
  let g = Cluster.graph cluster in
  for sw = 100 to 100 + s - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "switch %d within ports" sw)
      true
      (Graph.degree g sw <= 8)
  done

let test_topology_mesh () =
  let cluster = Topology.mesh ~hosts:(some_hosts 12) ~rows:3 ~cols:4 ~link:Link.gigabit in
  (* r*(c-1) + c*(r-1) = 3*3 + 4*2 = 17 edges; no wrap-around. *)
  Alcotest.(check int) "edges" 17 (Graph.n_edges (Cluster.graph cluster));
  Alcotest.(check bool) "connected" true (Cluster.is_connected cluster);
  Alcotest.(check int) "corner degree" 2 (Graph.degree (Cluster.graph cluster) 0);
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Topology.mesh: rows * cols <> host count") (fun () ->
      ignore (Topology.mesh ~hosts:(some_hosts 5) ~rows:2 ~cols:2 ~link:Link.gigabit))

let test_topology_hypercube () =
  let cluster = Topology.hypercube ~hosts:(some_hosts 16) ~link:Link.gigabit in
  let g = Cluster.graph cluster in
  (* d-cube: n * d / 2 edges, every node degree d. *)
  Alcotest.(check int) "edges" 32 (Graph.n_edges g);
  for v = 0 to 15 do
    Alcotest.(check int) (Printf.sprintf "degree %d" v) 4 (Graph.degree g v)
  done;
  Alcotest.(check bool) "connected" true (Cluster.is_connected cluster);
  Alcotest.check_raises "non-power-of-two"
    (Invalid_argument "Topology.hypercube: host count must be a power of two")
    (fun () -> ignore (Topology.hypercube ~hosts:(some_hosts 12) ~link:Link.gigabit))

let test_topology_fat_tree () =
  let cluster = Topology.fat_tree ~hosts:(some_hosts 16) ~k:4 ~link:Link.gigabit () in
  let g = Cluster.graph cluster in
  (* k=4: 16 hosts + 8 edge + 8 agg + 4 core = 36 nodes. *)
  Alcotest.(check int) "nodes" 36 (Cluster.n_nodes cluster);
  Alcotest.(check int) "hosts" 16 (Cluster.n_hosts cluster);
  (* Edges: 16 host links + k pods * (k/2)^2 edge-agg + k*(k/2)^2
     agg-core / ... = 16 + 16 + 16 = 48. *)
  Alcotest.(check int) "edges" 48 (Graph.n_edges g);
  Alcotest.(check bool) "connected" true (Cluster.is_connected cluster);
  (* Every switch has degree k. *)
  for sw = 16 to 35 do
    Alcotest.(check int) (Printf.sprintf "switch %d degree" sw) 4 (Graph.degree g sw)
  done;
  (* Hosts in different pods have multiple disjoint shortest paths:
     check the hop distance is 6 (host-edge-agg-core-agg-edge-host). *)
  let hops = Hmn_graph.Traversal.bfs_hops g ~src:0 in
  Alcotest.(check int) "cross-pod distance" 6 hops.(15);
  Alcotest.check_raises "odd k" (Invalid_argument "Topology.fat_tree: k must be even, >= 2")
    (fun () -> ignore (Topology.fat_tree ~hosts:(some_hosts 16) ~k:3 ~link:Link.gigabit ()));
  Alcotest.check_raises "wrong host count"
    (Invalid_argument "Topology.fat_tree: host count must be k^3/4") (fun () ->
      ignore (Topology.fat_tree ~hosts:(some_hosts 10) ~k:4 ~link:Link.gigabit ()))

let test_topology_line_ring () =
  let line = Topology.line ~hosts:(some_hosts 4) ~link:Link.gigabit in
  Alcotest.(check int) "line links" 3 (Graph.n_edges (Cluster.graph line));
  let ring = Topology.ring ~hosts:(some_hosts 4) ~link:Link.gigabit in
  Alcotest.(check int) "ring links" 4 (Graph.n_edges (Cluster.graph ring))

(* ---- Cluster_gen ---- *)

let test_cluster_gen_ranges () =
  let rng = Hmn_rng.Rng.create 1 in
  let hosts = Cluster_gen.gen_hosts ~vmm:Vmm.none ~n:100 ~rng () in
  Array.iter
    (fun h ->
      let c = h.Node.capacity in
      Alcotest.(check bool) "mips in [1000,3000)" true
        (c.Resources.mips >= 1000. && c.Resources.mips < 3000.);
      Alcotest.(check bool) "mem in [1GB,3GB)" true
        (c.Resources.mem_mb >= 1024. && c.Resources.mem_mb < 3072.);
      Alcotest.(check bool) "stor in [1TB,3TB)" true
        (c.Resources.stor_gb >= 1024. && c.Resources.stor_gb < 3072.))
    hosts

let test_cluster_gen_deterministic () =
  let build () =
    let rng = Hmn_rng.Rng.create 99 in
    Cluster_gen.torus_cluster ~rows:5 ~cols:8 ~rng ()
  in
  let a = build () and b = build () in
  for i = 0 to 39 do
    Alcotest.(check bool)
      (Printf.sprintf "host %d equal" i)
      true
      (Resources.equal (Cluster.capacity a i) (Cluster.capacity b i))
  done

let test_cluster_gen_applies_vmm () =
  let rng1 = Hmn_rng.Rng.create 7 and rng2 = Hmn_rng.Rng.create 7 in
  let raw = Cluster_gen.gen_hosts ~vmm:Vmm.none ~n:10 ~rng:rng1 () in
  let net = Cluster_gen.gen_hosts ~vmm:Vmm.xen_like ~n:10 ~rng:rng2 () in
  Array.iteri
    (fun i h ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "host %d mips reduced" i)
        (h.Node.capacity.Resources.mips -. 50.)
        net.(i).Node.capacity.Resources.mips)
    raw

(* ---- properties ---- *)

let prop_switched_always_connected =
  QCheck.Test.make ~name:"switched topology always connected & within ports"
    ~count:100
    QCheck.(pair (int_range 1 200) (int_range 3 64))
    (fun (n, ports) ->
      let cluster = Topology.switched ~hosts:(some_hosts n) ~ports ~link:Link.gigabit in
      let g = Cluster.graph cluster in
      let ok = ref (Cluster.is_connected cluster) in
      for v = n to Cluster.n_nodes cluster - 1 do
        if Graph.degree g v > ports then ok := false
      done;
      !ok)

let prop_torus_degree =
  QCheck.Test.make ~name:"torus node degree is 4 when dims > 2" ~count:50
    QCheck.(pair (int_range 3 8) (int_range 3 8))
    (fun (rows, cols) ->
      let cluster =
        Topology.torus ~hosts:(some_hosts (rows * cols)) ~rows ~cols
          ~link:Link.gigabit
      in
      let g = Cluster.graph cluster in
      let ok = ref true in
      for v = 0 to (rows * cols) - 1 do
        if Graph.degree g v <> 4 then ok := false
      done;
      !ok)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "hmn_testbed"
    [
      ( "resources",
        [
          Alcotest.test_case "arithmetic" `Quick test_resources_arith;
          Alcotest.test_case "orders" `Quick test_resources_orders;
          Alcotest.test_case "validation" `Quick test_resources_validation;
        ] );
      ("vmm", [ Alcotest.test_case "deduct" `Quick test_vmm_deduct ]);
      ( "node & link",
        [
          Alcotest.test_case "node" `Quick test_node;
          Alcotest.test_case "link" `Quick test_link;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "basics" `Quick test_cluster_basics;
          Alcotest.test_case "mismatch" `Quick test_cluster_mismatch;
        ] );
      ( "topology",
        [
          Alcotest.test_case "torus" `Quick test_topology_torus;
          Alcotest.test_case "switched single" `Quick test_topology_switched_single;
          Alcotest.test_case "switched cascade" `Quick test_topology_switched_cascade;
          Alcotest.test_case "mesh" `Quick test_topology_mesh;
          Alcotest.test_case "hypercube" `Quick test_topology_hypercube;
          Alcotest.test_case "fat-tree" `Quick test_topology_fat_tree;
          Alcotest.test_case "line & ring" `Quick test_topology_line_ring;
        ] );
      ( "cluster_gen",
        [
          Alcotest.test_case "table 1 ranges" `Quick test_cluster_gen_ranges;
          Alcotest.test_case "deterministic" `Quick test_cluster_gen_deterministic;
          Alcotest.test_case "vmm deduction" `Quick test_cluster_gen_applies_vmm;
        ] );
      ( "properties",
        [ q prop_switched_always_connected; q prop_torus_degree ] );
    ]
