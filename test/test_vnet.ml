(* Tests for hmn_vnet: guests, virtual links, the virtual environment,
   the Table-1 workload profiles and the instance generator. *)

module Resources = Hmn_testbed.Resources
module Guest = Hmn_vnet.Guest
module Vlink = Hmn_vnet.Vlink
module Venv = Hmn_vnet.Virtual_env
module Workload = Hmn_vnet.Workload
module Venv_gen = Hmn_vnet.Venv_gen
module Graph = Hmn_graph.Graph

let small_venv () =
  let guests =
    Array.init 3 (fun i ->
        Guest.make
          ~name:(Printf.sprintf "vm%d" i)
          ~demand:
            (Resources.make
               ~mips:(float_of_int (10 * (i + 1)))
               ~mem_mb:100. ~stor_gb:10.))
  in
  let g = Graph.create ~n:3 () in
  let e01 = Graph.add_edge g 0 1 (Vlink.make ~bandwidth_mbps:5. ~latency_ms:40.) in
  let e12 = Graph.add_edge g 1 2 (Vlink.make ~bandwidth_mbps:2. ~latency_ms:50.) in
  (Venv.create ~guests ~graph:g, e01, e12)

let test_vlink_validation () =
  Alcotest.check_raises "zero bw"
    (Invalid_argument "Vlink.make: bandwidth must be positive") (fun () ->
      ignore (Vlink.make ~bandwidth_mbps:0. ~latency_ms:1.));
  Alcotest.check_raises "negative latency"
    (Invalid_argument "Vlink.make: negative latency") (fun () ->
      ignore (Vlink.make ~bandwidth_mbps:1. ~latency_ms:(-0.1)));
  Alcotest.check_raises "infinite bandwidth"
    (Invalid_argument "Vlink.make: non-finite value") (fun () ->
      ignore (Vlink.make ~bandwidth_mbps:Float.infinity ~latency_ms:1.));
  Alcotest.check_raises "NaN latency"
    (Invalid_argument "Vlink.make: non-finite value") (fun () ->
      ignore (Vlink.make ~bandwidth_mbps:1. ~latency_ms:Float.nan))

let test_venv_accessors () =
  let venv, e01, _ = small_venv () in
  Alcotest.(check int) "guests" 3 (Venv.n_guests venv);
  Alcotest.(check int) "vlinks" 2 (Venv.n_vlinks venv);
  Alcotest.(check string) "guest name" "vm1" (Venv.guest venv 1).Guest.name;
  Alcotest.(check (float 1e-9)) "demand" 20. (Venv.demand venv 1).Resources.mips;
  Alcotest.(check (float 1e-9)) "vlink bw" 5. (Venv.vlink venv e01).Vlink.bandwidth_mbps;
  Alcotest.(check (pair int int)) "endpoints" (0, 1) (Venv.endpoints venv e01);
  Alcotest.(check (float 1e-9)) "total demand" 60. (Venv.total_demand venv).Resources.mips;
  Alcotest.(check bool) "connected" true (Venv.is_connected venv)

let test_guest_degree_bandwidth () =
  let venv, _, _ = small_venv () in
  (* vm1 touches both links: 5 + 2. *)
  Alcotest.(check (float 1e-9)) "middle guest" 7. (Venv.guest_degree_bandwidth venv 1);
  Alcotest.(check (float 1e-9)) "edge guest" 5. (Venv.guest_degree_bandwidth venv 0)

let test_venv_validation () =
  let guests = [| Guest.make ~name:"a" ~demand:Resources.zero |] in
  let g = Graph.create ~n:2 () in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Virtual_env.create: guest array / graph size mismatch")
    (fun () -> ignore (Venv.create ~guests ~graph:g))

let test_workload_ranges () =
  let rng = Hmn_rng.Rng.create 2 in
  for _ = 1 to 200 do
    let d = Workload.draw_demand Workload.high_level rng in
    Alcotest.(check bool) "hl mem" true
      (d.Resources.mem_mb >= 128. && d.Resources.mem_mb < 256.);
    Alcotest.(check bool) "hl mips" true
      (d.Resources.mips >= 50. && d.Resources.mips < 100.);
    Alcotest.(check bool) "hl stor" true
      (d.Resources.stor_gb >= 100. && d.Resources.stor_gb < 200.);
    let l = Workload.draw_vlink Workload.high_level rng in
    Alcotest.(check bool) "hl bw" true
      (l.Vlink.bandwidth_mbps >= 0.5 && l.Vlink.bandwidth_mbps < 1.);
    Alcotest.(check bool) "hl lat" true
      (l.Vlink.latency_ms >= 30. && l.Vlink.latency_ms < 60.)
  done;
  for _ = 1 to 200 do
    let d = Workload.draw_demand Workload.low_level rng in
    Alcotest.(check bool) "ll mem" true
      (d.Resources.mem_mb >= 19. && d.Resources.mem_mb < 38.);
    let l = Workload.draw_vlink Workload.low_level rng in
    Alcotest.(check bool) "ll bw (87-175 kbps)" true
      (l.Vlink.bandwidth_mbps >= 0.087 && l.Vlink.bandwidth_mbps < 0.175)
  done

let test_venv_gen_counts () =
  let rng = Hmn_rng.Rng.create 3 in
  let venv =
    Venv_gen.generate ~profile:Workload.high_level ~n:100 ~density:0.02 ~rng ()
  in
  Alcotest.(check int) "guests" 100 (Venv.n_guests venv);
  Alcotest.(check int) "link count from density"
    (Venv_gen.expected_vlinks ~n:100 ~density:0.02)
    (Venv.n_vlinks venv);
  Alcotest.(check bool) "connected" true (Venv.is_connected venv);
  Alcotest.(check string) "names" "vm0" (Venv.guest venv 0).Guest.name

let test_venv_gen_deterministic () =
  let gen () =
    let rng = Hmn_rng.Rng.create 55 in
    Venv_gen.generate ~profile:Workload.low_level ~n:50 ~density:0.05 ~rng ()
  in
  let a = gen () and b = gen () in
  Alcotest.(check int) "same links" (Venv.n_vlinks a) (Venv.n_vlinks b);
  for i = 0 to 49 do
    Alcotest.(check bool)
      (Printf.sprintf "guest %d equal" i)
      true
      (Resources.equal (Venv.demand a i) (Venv.demand b i))
  done

(* Pinned bits of two generated instances: every guest's three demands
   and every virtual link's bandwidth and latency bound, in id order.
   A change to the draw order of the topology, the vlinks or the
   guests changes them. *)
let venv_bits_digest venv =
  let b = Buffer.create (64 * Venv.n_guests venv) in
  let add x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  for i = 0 to Venv.n_guests venv - 1 do
    let d = Venv.demand venv i in
    add d.Resources.mips;
    add d.Resources.mem_mb;
    add d.Resources.stor_gb
  done;
  for eid = 0 to Venv.n_vlinks venv - 1 do
    let l = Venv.vlink venv eid in
    add l.Vlink.bandwidth_mbps;
    add l.Vlink.latency_ms
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_venv_gen_pins () =
  let digest ~profile ~n ~density ~seed =
    venv_bits_digest
      (Venv_gen.generate ~profile ~n ~density ~rng:(Hmn_rng.Rng.create seed) ())
  in
  Alcotest.(check string)
    "low level, 2000 guests, density 0.01" "2d50b1178e015d1266f8fb336d3cdee4"
    (digest ~profile:Workload.low_level ~n:2000 ~density:0.01 ~seed:1);
  Alcotest.(check string)
    "high level, 400 guests, density 0.02" "52d7d0022146408041051b35e98637e7"
    (digest ~profile:Workload.high_level ~n:400 ~density:0.02 ~seed:2)

let test_scale_to_fit () =
  let rng = Hmn_rng.Rng.create 4 in
  let cluster =
    Hmn_testbed.Cluster_gen.torus_cluster ~vmm:Hmn_testbed.Vmm.none ~rows:2 ~cols:2
      ~rng ()
  in
  (* 100 high-level guests vastly exceed 4 hosts: memory and storage
     must be scaled to the requested fraction. *)
  let venv =
    Venv_gen.generate ~scale_to_fit:(cluster, 0.8) ~profile:Workload.high_level
      ~n:100 ~density:0.02 ~rng ()
  in
  let total = Venv.total_demand venv in
  let cap = Hmn_testbed.Cluster.total_capacity cluster in
  Alcotest.(check bool) "memory at target" true
    (Hmn_prelude.Float_ext.approx ~eps:1e-6 total.Resources.mem_mb
       (0.8 *. cap.Resources.mem_mb));
  Alcotest.(check bool) "storage at target" true
    (Hmn_prelude.Float_ext.approx ~eps:1e-6 total.Resources.stor_gb
       (0.8 *. cap.Resources.stor_gb))

let test_scale_to_fit_noop_when_loose () =
  let rng = Hmn_rng.Rng.create 4 in
  let cluster =
    Hmn_testbed.Cluster_gen.torus_cluster ~vmm:Hmn_testbed.Vmm.none ~rows:5 ~cols:8
      ~rng ()
  in
  let gen scale =
    let rng = Hmn_rng.Rng.create 77 in
    Venv_gen.generate ?scale_to_fit:scale ~profile:Workload.low_level ~n:100
      ~density:0.02 ~rng ()
  in
  let unscaled = gen None and scaled = gen (Some (cluster, 0.9)) in
  (* 100 low-level guests are far below 90% of a 40-host cluster; the
     calibration must not touch them. *)
  for i = 0 to 99 do
    Alcotest.(check bool)
      (Printf.sprintf "guest %d untouched" i)
      true
      (Resources.equal (Venv.demand unscaled i) (Venv.demand scaled i))
  done;
  (* CPU is never scaled even when memory is. *)
  let tight_cluster =
    Hmn_testbed.Cluster_gen.torus_cluster ~vmm:Hmn_testbed.Vmm.none ~rows:2 ~cols:2
      ~rng ()
  in
  let gen2 scale =
    let rng = Hmn_rng.Rng.create 78 in
    Venv_gen.generate ?scale_to_fit:scale ~profile:Workload.high_level ~n:100
      ~density:0.02 ~rng ()
  in
  let u = gen2 None and s = gen2 (Some (tight_cluster, 0.5)) in
  Alcotest.(check (float 1e-9)) "cpu preserved"
    (Venv.total_demand u).Resources.mips (Venv.total_demand s).Resources.mips

let test_generate_shaped () =
  let rng = Hmn_rng.Rng.create 6 in
  let shapes =
    [
      ("star", Venv_gen.Star, fun venv -> Venv.n_vlinks venv = 29);
      ("tree", Venv_gen.Random_tree, fun venv -> Venv.n_vlinks venv = 29);
      ( "barabasi-albert",
        Venv_gen.Barabasi_albert 2,
        fun venv -> Venv.n_vlinks venv = (30 - 2) * 2 );
      ("waxman", Venv_gen.Waxman (0.4, 0.4), fun venv -> Venv.n_vlinks venv >= 29);
      ( "random-connected",
        Venv_gen.Random_connected 0.1,
        fun venv -> Venv.n_vlinks venv = Venv_gen.expected_vlinks ~n:30 ~density:0.1 );
    ]
  in
  List.iter
    (fun (name, shape, check_links) ->
      let venv =
        Venv_gen.generate_shaped ~profile:Workload.high_level ~n:30 ~shape ~rng ()
      in
      Alcotest.(check int) (name ^ " guests") 30 (Venv.n_guests venv);
      Alcotest.(check bool) (name ^ " connected") true (Venv.is_connected venv);
      Alcotest.(check bool) (name ^ " link count") true (check_links venv))
    shapes;
  (* The star hub is guest 0 with degree n-1. *)
  let star =
    Venv_gen.generate_shaped ~profile:Workload.high_level ~n:10 ~shape:Venv_gen.Star
      ~rng ()
  in
  Alcotest.(check int) "hub degree" 9 (Graph.degree (Venv.graph star) 0)

(* ---- properties ---- *)

let prop_generated_always_connected =
  QCheck.Test.make ~name:"generated virtual environments are connected" ~count:100
    QCheck.(pair small_nat (int_range 2 150))
    (fun (seed, n) ->
      let rng = Hmn_rng.Rng.create seed in
      let venv =
        Venv_gen.generate ~profile:Workload.low_level ~n ~density:0.01 ~rng ()
      in
      Venv.is_connected venv)

let prop_degree_bandwidth_sums_to_twice_total =
  QCheck.Test.make ~name:"sum of guest degree bandwidth = 2 * total link bandwidth"
    ~count:50
    QCheck.(pair small_nat (int_range 2 60))
    (fun (seed, n) ->
      let rng = Hmn_rng.Rng.create seed in
      let venv =
        Venv_gen.generate ~profile:Workload.high_level ~n ~density:0.1 ~rng ()
      in
      let per_guest = ref 0. in
      for g = 0 to n - 1 do
        per_guest := !per_guest +. Venv.guest_degree_bandwidth venv g
      done;
      let per_link = ref 0. in
      for e = 0 to Venv.n_vlinks venv - 1 do
        per_link := !per_link +. (Venv.vlink venv e).Vlink.bandwidth_mbps
      done;
      Hmn_prelude.Float_ext.approx ~eps:1e-6 !per_guest (2. *. !per_link))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "hmn_vnet"
    [
      ( "vlink & venv",
        [
          Alcotest.test_case "vlink validation" `Quick test_vlink_validation;
          Alcotest.test_case "accessors" `Quick test_venv_accessors;
          Alcotest.test_case "degree bandwidth" `Quick test_guest_degree_bandwidth;
          Alcotest.test_case "venv validation" `Quick test_venv_validation;
        ] );
      ( "workload",
        [ Alcotest.test_case "table 1 ranges" `Quick test_workload_ranges ] );
      ( "venv_gen",
        [
          Alcotest.test_case "counts & connectivity" `Quick test_venv_gen_counts;
          Alcotest.test_case "deterministic" `Quick test_venv_gen_deterministic;
          Alcotest.test_case "pinned bits" `Quick test_venv_gen_pins;
          Alcotest.test_case "scale_to_fit" `Quick test_scale_to_fit;
          Alcotest.test_case "scale_to_fit no-op" `Quick test_scale_to_fit_noop_when_loose;
          Alcotest.test_case "shaped topologies" `Quick test_generate_shaped;
        ] );
      ( "properties",
        [ q prop_generated_always_connected; q prop_degree_bandwidth_sums_to_twice_total ] );
    ]
