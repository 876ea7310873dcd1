module Cluster = Hmn_testbed.Cluster
module Cluster_gen = Hmn_testbed.Cluster_gen
module Link = Hmn_testbed.Link
module Virtual_env = Hmn_vnet.Virtual_env
module Problem = Hmn_mapping.Problem
module Mapping = Hmn_mapping.Mapping
module Mapper = Hmn_core.Mapper
module Hmn = Hmn_core.Hmn
module Validator = Hmn_validate.Validator
module Rng = Hmn_rng.Rng

type shape = Clos | Fat_tree

let shape_name = function Clos -> "clos" | Fat_tree -> "fat-tree"

(* Edge (host) links stay at the paper's 1 Gbps / 5 ms; switch-to-switch
   tiers get 10 Gbps so bisection bandwidth does not collapse as racks
   multiply — at 4000 hosts a 1 Gbps spine uplink would be saturated by
   a handful of cross-rack virtual links, failing every instance for a
   reason the paper's 40-host tables never exhibit. *)
let uplink = Link.make ~bandwidth_mbps:10_000. ~latency_ms:5.

(* Rack geometry per target size: small sizes mirror the paper's
   switched cluster (10 hosts per switch); the 4000-host point uses
   100 racks of 40 so the per-rack subproblem stays the size of the
   whole paper cluster. *)
let clos_geometry ~hosts =
  let hosts_per_rack, spines =
    if hosts <= 40 then (10, 2) else if hosts <= 400 then (10, 4) else (40, 8)
  in
  let racks = max 1 ((hosts + hosts_per_rack - 1) / hosts_per_rack) in
  (racks, hosts_per_rack, spines)

(* Smallest even k with k^3/4 >= hosts. *)
let fat_tree_k ~hosts =
  let rec grow k = if k * k * k / 4 >= hosts then k else grow (k + 2) in
  grow 4

let cluster ~shape ~hosts ~rng =
  match shape with
  | Clos ->
    let racks, hosts_per_rack, spines = clos_geometry ~hosts in
    Cluster_gen.clos_cluster ~uplink ~racks ~hosts_per_rack ~spines ~rng ()
  | Fat_tree ->
    let k = fat_tree_k ~hosts in
    Cluster_gen.fat_tree_cluster ~agg_link:uplink ~core_link:uplink ~k ~rng ()

(* ~1.5 virtual links per guest independent of size: the paper's
   density is defined against the complete graph, so a fixed density
   would grow vlinks quadratically and drown the scaling signal in
   instance growth rather than cluster growth. *)
let density ~n_guests = if n_guests <= 1 then 1. else 3. /. float_of_int (n_guests - 1)

let problem ~shape ~hosts ~ratio ~seed =
  let rng = Rng.create seed in
  let cluster = cluster ~shape ~hosts ~rng in
  let n_guests = ratio * Cluster.n_hosts cluster in
  (* The paper's rule: fat high-level guests up to 10:1, thin low-level
     guests for 20:1 and beyond. At 25:1 the high-level profile put
     both memory and storage at the calibrated 85% ceiling, where
     two-dimensional packing strands each host in whichever dimension
     fills first and every algorithm (flat included) fails — a
     pressure artefact, not a scaling signal. *)
  let profile =
    if ratio <= 10 then Hmn_vnet.Workload.high_level
    else Hmn_vnet.Workload.low_level
  in
  let venv =
    Hmn_vnet.Venv_gen.generate
      ~scale_to_fit:(cluster, Setup.fit_fraction)
      ~profile ~n:n_guests ~density:(density ~n_guests) ~rng ()
  in
  Problem.make ~cluster ~venv

type result = {
  shape : shape;
  n_hosts : int;
  n_racks : int;
  n_guests : int;
  n_vlinks : int;
  outcome : Mapper.outcome;
  report : Hmn.stage_report;
  valid : bool option;  (* None: validation off or mapping failed *)
}

let run ?jobs ?(ratio = 25) ?(seed = 42) ?(validate = false) ~shape ~hosts () =
  let problem = problem ~shape ~hosts ~ratio ~seed in
  let cluster = problem.Problem.cluster in
  let venv = problem.Problem.venv in
  (* Unlimited migration is O(guests^2) in the worst case; at 100k
     guests the default 16x cap would dominate wall time for marginal
     LBF gains. Four moves per host keeps the stage linear in cluster
     size. *)
  let max_moves = 4 * Cluster.n_hosts cluster in
  let outcome, report = Hmn.run_sharded_detailed ?jobs ~max_moves problem in
  let valid =
    match outcome.Mapper.result with
    | Ok mapping when validate ->
      Some ((Validator.check mapping).Validator.violations = [])
    | _ -> None
  in
  {
    shape;
    n_hosts = Cluster.n_hosts cluster;
    n_racks = Cluster.n_racks cluster;
    n_guests = Virtual_env.n_guests venv;
    n_vlinks = Virtual_env.n_vlinks venv;
    outcome;
    report;
    valid;
  }

(* Deterministic summary: everything here must be byte-identical across
   runs, machines and jobs counts — wall times go to {!render_timings}
   (stderr) instead. *)
let render_summary r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "scale: %s  hosts=%d racks=%d guests=%d vlinks=%d\n"
       (shape_name r.shape) r.n_hosts r.n_racks r.n_guests r.n_vlinks);
  (match r.outcome.Mapper.result with
  | Error f ->
    Buffer.add_string b
      (Printf.sprintf "result: FAILED at %s (%s)\n" f.Mapper.stage f.Mapper.reason)
  | Ok mapping ->
    Buffer.add_string b
      (Printf.sprintf "result: mapped  lbf=%.6f hops=%d mean-latency=%.3fms\n"
         (Mapping.objective mapping)
         (Mapping.total_hops mapping)
         (Mapping.mean_path_latency mapping));
    (match r.report.Hmn.migration_stats with
    | Some m ->
      Buffer.add_string b
        (Printf.sprintf "migration: %d moves (lbf %.6f -> %.6f)\n" m.Hmn_core.Migration.moves
           m.Hmn_core.Migration.lbf_before m.Hmn_core.Migration.lbf_after)
    | None -> ());
    (match r.report.Hmn.networking_stats with
    | Some s ->
      Buffer.add_string b
        (Printf.sprintf "networking: %d routed, %d intra-host, %d expansions\n"
           s.Hmn_core.Networking.routed s.Hmn_core.Networking.intra_host
           s.Hmn_core.Networking.expanded)
    | None -> ()));
  (match r.valid with
  | Some true -> Buffer.add_string b "validation: OK\n"
  | Some false -> Buffer.add_string b "validation: VIOLATIONS\n"
  | None -> ());
  Buffer.contents b

(* Deterministic like the summary: search-effort counters only, no wall
   time. CI pins these for the 432-host fixture — any drift means the
   engine's search order or pruning changed. *)
let render_routing_counters r =
  match r.report.Hmn.networking_stats with
  | None -> ""
  | Some s ->
    Printf.sprintf "routing: expanded=%d generated=%d fast_path=%d\n"
      s.Hmn_core.Networking.expanded s.Hmn_core.Networking.generated
      s.Hmn_core.Networking.fast_path

let render_timings r =
  Printf.sprintf "timings: hosting=%.3fs migration=%.3fs networking=%.3fs total=%.3fs\n"
    r.report.Hmn.hosting_s r.report.Hmn.migration_s r.report.Hmn.networking_s
    r.outcome.Mapper.elapsed_s
