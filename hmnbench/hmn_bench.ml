(* The benchmark of record: one process runs one workload and prints one
   JSON result line.

     hmn_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
               [--fast] [--out-dir DIR] [--rev REV]

   hmn_bench calls public library functions from outside and times
   them; nothing under lib/ knows it is being measured. Every output it
   times is also checked: batch mappings go through the Validator and an
   export round trip (compile -> decompile -> Artifact_check), a repeated
   online session must render a byte-identical summary and journal, and
   traced runs must reproduce the untraced results.

   --trace 0 (timed run): take each of the workload's instances through
   one unit of work — more passes over all of them while --seconds
   allows — building it (timed: setup_s) right before, and report the
   end-to-end metrics: timings pooled over the instances, quality as
   their mean. A batch unit of work is one environment taken
   through the whole user path (map -> validate -> compile -> decompile
   -> check); an online unit is one whole admission session.
   --trace 1 (traced run): the run's first seeded instance untraced, the
   same unit again with every layer call timed and under a span of the
   program's own tracer (Hmn_obs.Trace), and a snapshot probe of single
   online admissions; reports the per-layer metrics and writes a Chrome
   trace_event file. It does a fixed amount of work and ignores
   --seconds.

   The last line of stdout is {"correct", "attempted", "failed",
   "metrics"}; the full result document (rows with sample counts and
   quartiles, stamped with git rev, nproc, OCaml version and seed) is
   written under --out-dir. Exit status is 0 only when every check
   passed; 2 on a usage error. *)

module Json = Hmn_prelude.Json
module Clock = Hmn_prelude.Clock
module Descriptive = Hmn_stats.Descriptive
module Rng = Hmn_rng.Rng
module Cluster = Hmn_testbed.Cluster
module Venv = Hmn_vnet.Virtual_env
module Venv_gen = Hmn_vnet.Venv_gen
module Problem = Hmn_mapping.Problem
module Mapping = Hmn_mapping.Mapping
module Path = Hmn_routing.Path
module Latency_table = Hmn_routing.Latency_table
module Astar_prune = Hmn_routing.Astar_prune
module Route_ctx = Hmn_routing.Route_ctx
module Mapper = Hmn_core.Mapper
module Hmn = Hmn_core.Hmn
module Hosting = Hmn_core.Hosting
module Migration = Hmn_core.Migration
module Networking = Hmn_core.Networking
module Validator = Hmn_validate.Validator
module Artifact_check = Hmn_validate.Artifact_check
module Spec = Hmn_artifact.Spec
module Compile = Hmn_artifact.Compile
module Decompile = Hmn_artifact.Decompile
module Scale = Hmn_experiments.Scale
module Scenario = Hmn_experiments.Scenario
module Setup = Hmn_experiments.Setup
module Service = Hmn_online.Service
module Session = Hmn_online.Session
module Admission = Hmn_online.Admission
module Occupancy = Hmn_online.Occupancy
module Tenant = Hmn_online.Tenant
module Defrag = Hmn_online.Defrag
module Flight = Hmn_online.Flight
module Journal = Hmn_obs.Journal
module Trace = Hmn_obs.Trace

(* ---------- statistics ---------- *)

let percentile xs p = Descriptive.percentile (Array.of_list xs) ~p
let median xs = Descriptive.median (Array.of_list xs)
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The tail is p90 when at least a hundred samples leave ten beyond it,
   else p50: a pooled online run has thousands of admissions, a batch
   run a handful of whole-instance mappings. Not p99: over ten seeds on
   a 2-core shared VM the p99 of admission time spread 17-30% (its ratio
   to p50 alone ranged 2.5-3.75), wider than any bound the benchmark may
   set. *)
let tail_percentile n = if n >= 100 then 90. else 50.

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* ---------- layers of the traced run ---------- *)

(* What the traced run records about each layer it calls: the wall time
   of every call and the words allocated on the calling domain
   ([Gc.quick_stat] deltas; worker domains of sharded Hosting are not
   counted). Each call also runs under a span of the layer's name in the
   program's own tracer, which writes the Chrome trace. *)
module Layers = struct
  type entry = { mutable calls : float list; mutable words : float }
  type t = (string, entry) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let entry t name =
    match Hashtbl.find_opt t name with
    | Some e -> e
    | None ->
      let e = { calls = []; words = 0. } in
      Hashtbl.add t name e;
      e

  let time t name f =
    let e = entry t name in
    let a0 = alloc_words () in
    let v, dt = Trace.with_span ~cat:"bench" name (fun () -> Clock.time f) in
    e.calls <- dt :: e.calls;
    e.words <- e.words +. (alloc_words () -. a0);
    v

  let calls t name = (entry t name).calls
  let total t name = List.fold_left ( +. ) 0. (calls t name)
  let alloc_mw t name = (entry t name).words /. 1e6
end

(* [f] as layer [name] of a traced run, or bare: the timed run and the
   traced run share one implementation of each user path. *)
let layer t name f = match t with Some t -> Layers.time t name f | None -> f ()

(* ---------- workloads ---------- *)

type batch = {
  problem : int -> Problem.t;  (** the product generator, from the seed *)
  cluster : int -> Cluster.t;
      (** the cluster [problem] draws first from the same seed, so the
          traced run can split generation time into cluster and venv *)
  sharded : bool;
      (** racked Clos: two-level Hosting over [jobs] domains and
          Migration capped at [4 * hosts], as [hmn_cli scale] runs it *)
}

type kind =
  | Batch of batch
  | Online of { hosts : int; duration_s : float }

let clos_batch ~hosts =
  {
    problem = (fun seed -> Scale.problem ~shape:Scale.Clos ~hosts ~ratio:25 ~seed);
    cluster = (fun seed -> Scale.cluster ~shape:Scale.Clos ~hosts ~rng:(Rng.create seed));
    sharded = true;
  }

let torus_batch ~guests =
  let sc =
    {
      Scenario.ratio = float_of_int guests /. float_of_int Setup.n_hosts;
      density = 0.01;
      workload = Scenario.Low_level;
    }
  in
  {
    problem = (fun seed -> Scenario.build sc Scenario.Torus ~seed);
    cluster =
      (fun seed -> Scenario.build_cluster Scenario.Torus ~rng:(Rng.create seed));
    sharded = false;
  }

(* A run maps [instances] independent inputs and pools its timings over
   them. The counts below make one pass over all of them take 15-25 s
   on two cores. *)
type workload = { kind : kind; instances : int }

(* Full size, then the reduced size of --fast: a smoke that takes every
   code path in well under a second. *)
let workload name ~fast =
  let pick full small = if fast then small else full in
  let w kind instances = Some { kind; instances = pick instances 1 } in
  match name with
  | "clos-400" -> w (Batch (clos_batch ~hosts:(pick 400 40))) 12
  | "clos-1600" -> w (Batch (clos_batch ~hosts:(pick 1600 40))) 2
  | "torus-fig1" -> w (Batch (torus_batch ~guests:(pick 2000 200))) 16
  | "online-clos-400" ->
    w (Online { hosts = pick 400 40; duration_s = pick 1500. 300. }) 3
  | _ -> None

let workload_names = [ "clos-400"; "clos-1600"; "online-clos-400"; "torus-fig1" ]

(* The first [references k] of a run's [k] instances are the same in
   every run; the others are drawn from the run's seed and differ
   between runs whose seeds differ. lbf and acceptance are taken on the
   reference instances alone, so they repeat exactly from run to run and
   their bound can be tight: the heuristic's answer varies a lot from
   input to input (single torus instances span 350-540 MIPS of LBF over
   ten seeds; a run's mean over its instances still moved 5-7% from
   seed to seed). *)
let references k = (k + 1) / 2

let instance_seed ~seed ~k i = if i < references k then i else (seed * 64) + i

let online_cluster ~hosts ~seed =
  Scale.cluster ~shape:Scale.Clos ~hosts ~rng:(Rng.create seed)

(* One tenant per simulated second with a 10-minute mean residency:
   ~260 resident tenants and about half the memory in use on 400 hosts
   once the session warms up. The event engine decides each arrival only
   after the previous one is committed, so this is a closed loop; the
   rate sets occupancy, not wall-clock pressure. *)
let online_config ~seed ~duration_s =
  { Service.default_config with seed; arrival_rate_per_s = 1.0; duration_s; validate = false }

(* ---------- bookkeeping ---------- *)

type counts = { mutable attempted : int; mutable failed : int }

let counts = { attempted = 0; failed = 0 }
let attempt n = counts.attempted <- counts.attempted + n

let failure ?(ops = 1) msg =
  counts.failed <- counts.failed + ops;
  prerr_endline ("hmn_bench: FAILED: " ^ msg)

(* Run [f ~pass i (build i)] for every instance [i < k], in passes:
   another pass starts only if it is expected to end before the
   deadline, so every instance runs equally often and a run overshoots
   --seconds only when its first pass does. Exactly one pass when
   [once]. [build] runs right before each unit of work, and each unit
   starts from a compacted heap, as in a fresh process, not amid the
   previous unit's garbage: on the torus workload this narrowed map_s
   over five same-seed runs from 0.188-0.236 s to 0.164-0.193 s. *)
let passes ~seconds ~once ~k ~build f =
  let deadline = Clock.now_s () +. seconds in
  let rec go pass last =
    let (), dt =
      Clock.time (fun () ->
          for i = 0 to k - 1 do
            let x = build i in
            Gc.compact ();
            f ~pass i x
          done)
    in
    if (not once) && Clock.now_s () +. Float.max last dt <= deadline then
      go (pass + 1) dt
  in
  go 0 0.

(* setup_s: before each unit of work its instance is built again and
   again, each build timed, until [budget] seconds have gone (at least
   once, at most 50 times); the last build is the one that runs. The
   host of the shared 2-core VM this was tuned on changes speed every few
   seconds, and set-up timed in one burst at the start of a run read
   either 0.47 or 0.80 ms for the same online cluster build; spread over
   the run, its samples meet the host as the timed work does. *)
let timed_build ~budget samples build i =
  let t0 = Clock.now_s () in
  let rec go n =
    let x, dt = Clock.time (fun () -> build i) in
    samples := dt :: !samples;
    if n >= 49 || Clock.elapsed_s t0 >= budget then x else go (n + 1)
  in
  go 0

let setup_budget ~fast = if fast then 0. else 0.25

(* ---------- the batch user path ---------- *)

let map_product b ~jobs problem =
  if b.sharded then
    Hmn.run_sharded_detailed ~jobs
      ~max_moves:(4 * Cluster.n_hosts problem.Problem.cluster)
      problem
  else Hmn.run_detailed problem

(* validate -> compile (shell grammar) -> decompile -> Artifact_check;
   returns the bundle size. *)
let export_and_check ?layers mapping =
  let report = layer layers "validator" (fun () -> Validator.check mapping) in
  match report.Validator.violations with
  | v :: _ -> Error (Format.asprintf "validator: %a" Validator.pp_violation v)
  | [] -> (
    let bundle =
      layer layers "compile" (fun () -> Compile.of_mapping ~format:Spec.Shell mapping)
    in
    match layer layers "decompile" (fun () -> Decompile.run ~files:bundle.Compile.files) with
    | Error e -> Error ("decompile: " ^ e)
    | Ok d -> (
      let r = layer layers "artifact_check" (fun () -> Artifact_check.check ~mapping d) in
      match r.Artifact_check.violations with
      | [] -> Ok (Compile.bytes bundle)
      | v :: _ -> Error (Format.asprintf "artifact check: %a" Artifact_check.pp_violation v)))

type batch_result = {
  map_s : float;
  pipeline_s : float;
  lbf : float;
  hops : int;
  mean_latency : float;
  report : Hmn.stage_report;
}

let batch_pipeline b ~jobs problem =
  let t0 = Clock.now_s () in
  let (outcome, report), map_s = Clock.time (fun () -> map_product b ~jobs problem) in
  match outcome.Mapper.result with
  | Error f ->
    Error (Printf.sprintf "mapping failed at %s: %s" f.Mapper.stage f.Mapper.reason)
  | Ok mapping ->
    Result.map
      (fun _bytes ->
        {
          map_s;
          pipeline_s = Clock.elapsed_s t0;
          lbf = Mapping.objective mapping;
          hops = Mapping.total_hops mapping;
          mean_latency = Mapping.mean_path_latency mapping;
          report;
        })
      (export_and_check mapping)

(* ---------- the online user path ---------- *)

type session_result = {
  summary : Session.summary;
  rendered : string;
  events : string;
  wall_s : float;
  map_total_s : float;
  calls_s : float list;
  latency_sum : float;
  latency_n : int;
}

(* One [Service.run] with the flight recorder's journal on. The policy is
   wrapped to time each call from outside, and the admission hook sums
   the physical latency of every admitted tenant's inter-host paths. *)
let online_session ~cluster ~config ~policy =
  let calls = ref [] and map_total = ref 0. in
  let latency_sum = ref 0. and latency_n = ref 0 in
  let wrapped =
    {
      policy with
      Mapper.run =
        (fun ~rng problem ->
          let o, dt = Clock.time (fun () -> policy.Mapper.run ~rng problem) in
          calls := dt :: !calls;
          map_total := !map_total +. dt;
          o);
    }
  in
  let on_admit (t : Tenant.t) =
    Array.iter
      (fun p ->
        if not (Path.is_intra_host p) then begin
          latency_sum := !latency_sum +. Path.total_latency cluster p;
          incr latency_n
        end)
      t.Tenant.paths
  in
  let flight = Flight.create ~journal:true ~timeline:false ~quantiles:true cluster in
  let summary, wall_s =
    Clock.time (fun () -> Service.run ~flight ~on_admit ~cluster ~policy:wrapped config)
  in
  {
    summary;
    rendered = Session.render_summary summary;
    events = Option.value (Flight.events_jsonl flight) ~default:"";
    wall_s;
    map_total_s = !map_total;
    calls_s = !calls;
    latency_sum = !latency_sum;
    latency_n = !latency_n;
  }

let hmn_policy () =
  match Admission.find_policy "HMN" with Ok p -> p | Error e -> failwith e

let same_session a b =
  a.rendered = b.rendered && a.events = b.events && a.latency_sum = b.latency_sum

(* ---------- HMN rebuilt from its public stages ---------- *)

(* Per-route rows from the benchmark's router. *)
type routes = {
  mutable ok : int;
  mutable route_s : float list;
  mutable generated : float list;
  mutable generated_sum : int;
  mutable expanded_sum : int;
  mutable hops_sum : int;
}

let new_routes () =
  { ok = 0; route_s = []; generated = []; generated_sum = 0; expanded_sum = 0; hops_sum = 0 }

(* The default router's exact call, A*Prune with one reusable context
   per Networking pass, timed per route. *)
let router rows =
  let ctx = Route_ctx.create () in
  fun ~residual ~latency_tables ~src ~dst ~bandwidth_mbps ~latency_ms () ->
    let found, dt =
      Clock.time (fun () ->
          Astar_prune.route ~ctx ~residual ~latency_tables ~src ~dst ~bandwidth_mbps
            ~latency_ms ())
    in
    rows.route_s <- dt :: rows.route_s;
    match found with
    | None -> None
    | Some (path, st) ->
      rows.ok <- rows.ok + 1;
      rows.generated <- float_of_int st.Astar_prune.generated :: rows.generated;
      rows.generated_sum <- rows.generated_sum + st.Astar_prune.generated;
      rows.expanded_sum <- rows.expanded_sum + st.Astar_prune.expanded;
      rows.hops_sum <- rows.hops_sum + Path.hop_count path;
      Some path

type stage_counts = { mutable moves : int; mutable intra_host : int }

let new_stages () = { moves = 0; intra_host = 0 }

(* The calls [Hmn.run_stages] makes, each one a layer. *)
let traced_hmn t ~hosting ?max_moves ~rows ~stages problem =
  let t0 = Clock.now_s () in
  let finish result =
    {
      Mapper.result;
      elapsed_s = Clock.elapsed_s t0;
      stage_seconds = [];
      tries = 1;
      last_failure = (match result with Error f -> Some f | Ok _ -> None);
    }
  in
  match layer t "hosting" (fun () -> hosting problem) with
  | Error f -> finish (Error f)
  | Ok placement -> (
    let m = layer t "migration" (fun () -> Migration.run ?max_moves placement) in
    stages.moves <- stages.moves + m.Migration.moves;
    match layer t "networking" (fun () -> Networking.run ~router:(router rows) placement) with
    | Error f -> finish (Error f)
    | Ok (link_map, s) ->
      stages.intra_host <- stages.intra_host + s.Networking.intra_host;
      finish (Ok (Mapping.make ~placement ~link_map)))

(* ---------- snapshot probe of single admissions ---------- *)

type probe = {
  tenants : int;  (** resident at the snapshot *)
  admitted : int;
  probes : int;
  venv_s : float;
  defrag_moves : int;
  bytes : int;
  layers : Layers.t;
}

(* Fill the cluster with tenants from the online request mix until half
   its memory is in use (about the online workload's mean occupancy) or
   [max_fill] tenants are resident, then time [probes] single admissions
   against that snapshot. The cap keeps the fill affordable on large
   fabrics, where one admission costs tens of milliseconds. Each probe
   is the service's per-arrival steps (residual view, screen, HMN,
   commit, journal) plus the per-tenant export the service runs with
   --export-on-admit; every admitted probe is released again. Ends with
   one forced defragmentation round (threshold 0, the default move
   cap), since the freshly filled snapshot is balanced enough that the
   service's own trigger would skip it. Up to 400 hosts that is 250
   tenants and 200 probes; fewer on larger fabrics, where one
   admission's Migration stage alone takes ~0.1 s. *)
let run_probe ~fast ~cluster ~seed =
  let hosts = Cluster.n_hosts cluster in
  let probes = if fast then 20 else min 200 (80_000 / hosts) in
  let max_fill = min 250 (100_000 / hosts) in
  let cfg = Service.default_config in
  let occ = Occupancy.create cluster in
  let flight = Flight.create ~journal:true ~timeline:false ~quantiles:false cluster in
  let rng = Rng.create (seed lxor 0x51ed27) in
  let venv_s = ref 0. in
  let next_venv () =
    let n = Rng.int_in rng ~lo:cfg.Service.guests_lo ~hi:cfg.Service.guests_hi in
    let vrng = Rng.create (Rng.int rng ~bound:0x3FFFFFFF) in
    let v, dt =
      Clock.time (fun () ->
          Venv_gen.generate
            ~scale_to_fit:(cluster, cfg.Service.scale_frac)
            ~profile:cfg.Service.profile ~n ~density:cfg.Service.density ~rng:vrng ())
    in
    venv_s := !venv_s +. dt;
    v
  in
  (* [t] is [None] while filling: only the probes are measured *)
  let admit t ~id venv =
    layer t "admission" (fun () ->
        let residual = layer t "residual_cluster" (fun () -> Occupancy.residual_cluster occ) in
        let candidates = Admission.candidate_hosts ~residual ~venv in
        let problem, screened =
          layer t "screen" (fun () ->
              let p = Problem.make ~cluster:residual ~venv in
              (p, Problem.obviously_infeasible p))
        in
        if screened <> None then None
        else
          let outcome =
            layer t "map" (fun () ->
                traced_hmn t ~hosting:Hosting.run ~rows:(new_routes ())
                  ~stages:(new_stages ()) problem)
          in
          match outcome.Mapper.result with
          | Error _ -> None
          | Ok mapping ->
            let tenant = Tenant.of_mapping ~id ~arrived_at:0. ~holding_s:1. mapping in
            layer t "occupancy_admit" (fun () -> Occupancy.admit occ tenant);
            layer t "flight_record" (fun () ->
                Flight.record flight ~t_s:0. ~occupancy:occ
                  (Journal.Decision
                     {
                       req_id = id;
                       n_guests = Venv.n_guests venv;
                       n_vlinks = Venv.n_vlinks venv;
                       candidate_hosts = candidates;
                       work = Admission.work ~venv ~tries:1;
                       decision = Journal.Admit { defrag_assisted = false };
                     }));
            Some (mapping, tenant))
  in
  let rec fill id misses =
    if
      Occupancy.mem_utilization occ >= 0.5
      || Occupancy.n_tenants occ >= max_fill
      || misses >= 20
    then id
    else
      match admit None ~id (next_venv ()) with
      | Some _ -> fill (id + 1) 0
      | None -> fill (id + 1) (misses + 1)
  in
  let first_probe = fill 0 0 in
  let tenants = Occupancy.n_tenants occ in
  if not (Validator.multi_ok (Occupancy.validate occ)) then
    failure "probe: the filled occupancy does not validate";
  let layers = Layers.create () in
  let t = Some layers in
  let admitted = ref 0 and bytes = ref 0 in
  let export id (tenant : Tenant.t) =
    let venv = tenant.Tenant.venv in
    let hosts = tenant.Tenant.hosts and paths = tenant.Tenant.paths in
    let bundle =
      layer t "compile" (fun () ->
          Compile.of_tenant ~format:Spec.Shell ~cluster ~venv ~id ~hosts ~paths ())
    in
    bytes := !bytes + Compile.bytes bundle;
    match layer t "decompile" (fun () -> Decompile.run ~files:bundle.Compile.files) with
    | Error e -> failure (Printf.sprintf "probe %d: decompile: %s" id e)
    | Ok d ->
      let r =
        layer t "artifact_check" (fun () ->
            Artifact_check.check_tenant ~cluster ~venv ~hosts ~paths d)
      in
      if not (Artifact_check.ok r) then
        failure (Printf.sprintf "probe %d: artifact violations" id)
  in
  for i = 0 to probes - 1 do
    let id = first_probe + i in
    attempt 1;
    match admit t ~id (next_venv ()) with
    | None -> ()
    | Some (mapping, tenant) ->
      incr admitted;
      let report = layer t "validator" (fun () -> Validator.check mapping) in
      if report.Validator.violations <> [] then
        failure (Printf.sprintf "probe %d: invalid mapping" id)
      else export id tenant;
      ignore (layer t "occupancy_release" (fun () -> Occupancy.release occ ~id))
  done;
  let defrag_moves =
    layer t "defrag_round" (fun () ->
        Defrag.round ~occupancy:occ ~threshold:0.
          ~max_moves:Defrag.default.Defrag.max_moves_per_round ())
  in
  if not (Validator.multi_ok (Occupancy.validate occ)) then
    failure "probe: the occupancy does not validate after the defrag round";
  { tenants; admitted = !admitted; probes; venv_s = !venv_s; defrag_moves; bytes = !bytes; layers }

(* ---------- metrics ---------- *)

type better = Lower | Higher

(* name, unit, better, exact (a pure function of the code and the
   inputs: same seed, same value) *)
let end_to_end_specs =
  [
    ("setup_s", "s", Lower, false);
    ("map_s", "s", Lower, false);
    ("pipeline_s", "s", Lower, false);
    ("request_ms_p50", "ms", Lower, false);
    ("request_ms_tail", "ms", Lower, false);
    ("lbf", "MIPS", Lower, true);
    ("mean_latency_ms", "ms", Lower, true);
    ("acceptance", "ratio", Higher, true);
    ("heap_peak_mb", "MB", Lower, false);
  ]

(* name, unit *)
let per_layer_units =
  [
    ("gen.cluster_s", "s");
    ("gen.venv_s", "s");
    ("latency_table.precompute_s", "s");
    ("hosting.wall_s", "s");
    ("hosting.alloc_mw", "Mwords");
    ("migration.wall_s", "s");
    ("migration.moves", "count");
    ("migration.alloc_mw", "Mwords");
    ("networking.wall_s", "s");
    ("networking.alloc_mw", "Mwords");
    ("networking.routed", "count");
    ("networking.intra_host", "count");
    ("networking.expanded", "count");
    ("networking.generated", "count");
    ("networking.labels_per_route", "labels");
    ("astar_prune.route_us_p50", "us");
    ("astar_prune.route_us_p99", "us");
    ("astar_prune.route_us_max", "us");
    ("astar_prune.generated_p50", "labels");
    ("astar_prune.generated_p99", "labels");
    ("astar_prune.generated_max", "labels");
    ("astar_prune.yield", "ratio");
    ("validator.wall_s", "s");
    ("compile.wall_s", "s");
    ("compile.bytes", "bytes");
    ("decompile.wall_s", "s");
    ("artifact_check.wall_s", "s");
    ("pipeline.map_share", "ratio");
    ("occupancy.tenants", "count");
    ("occupancy.residual_cluster_us", "us");
    ("admission.screen_us", "us");
    ("admission.hosting_us", "us");
    ("admission.migration_us", "us");
    ("admission.networking_us", "us");
    ("admission.admitted_share", "ratio");
    ("occupancy.admit_us", "us");
    ("occupancy.release_us", "us");
    ("flight.record_us", "us");
    ("defrag.round_ms", "ms");
    ("defrag.moves", "count");
    ("trace.map_overhead_frac", "ratio");
    ("trace.pipeline_overhead_frac", "ratio");
    ("trace.map_coverage", "ratio");
  ]

type e2e = {
  metric : string;
  samples : int;
  median : float;
  q1 : float;
  q3 : float;
  percentile : float option;
}

let of_samples metric xs =
  {
    metric;
    samples = List.length xs;
    median = median xs;
    q1 = percentile xs 25.;
    q3 = percentile xs 75.;
    percentile = None;
  }

let of_value ?(samples = 1) metric v =
  { metric; samples; median = v; q1 = v; q3 = v; percentile = None }

let of_tail metric xs =
  let p = tail_percentile (List.length xs) in
  let v = percentile xs p in
  { metric; samples = List.length xs; median = v; q1 = v; q3 = v; percentile = Some p }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ---------- the timed run (--trace 0) ---------- *)

(* Each instance's first result; the later passes must repeat it. *)
let firsts first =
  Array.to_list (Array.map (function Some r -> r | None -> failwith "an instance never ran") first)

let take n xs = List.filteri (fun i _ -> i < n) xs

let timed_batch b ~k ~seed ~seconds ~fast ~jobs =
  let setup = ref [] in
  let build =
    timed_build ~budget:(setup_budget ~fast) setup (fun i -> b.problem (instance_seed ~seed ~k i))
  in
  let first = Array.make k None and runs = ref [] in
  passes ~seconds ~once:fast ~k ~build (fun ~pass i problem ->
      attempt 1;
      match batch_pipeline b ~jobs problem with
      | Error e -> failure e
      | Ok r -> (
        runs := r :: !runs;
        match first.(i) with
        | None -> first.(i) <- Some r
        | Some f ->
          if f.lbf <> r.lbf || f.hops <> r.hops then
            failure (Printf.sprintf "pass %d: instance %d mapped differently" pass i)));
  let firsts = firsts first in
  let refs = take (references k) firsts in
  let map_ms = List.map (fun r -> r.map_s *. 1000.) !runs in
  [
    of_samples "setup_s" !setup;
    of_samples "map_s" (List.map (fun r -> r.map_s) !runs);
    of_samples "pipeline_s" (List.map (fun r -> r.pipeline_s) !runs);
    of_samples "request_ms_p50" map_ms;
    of_tail "request_ms_tail" map_ms;
    of_value ~samples:(List.length refs) "lbf" (mean (List.map (fun r -> r.lbf) refs));
    of_value ~samples:k "mean_latency_ms" (mean (List.map (fun r -> r.mean_latency) firsts));
    of_value ~samples:counts.attempted "acceptance"
      (float_of_int (List.length !runs) /. float_of_int counts.attempted);
  ]

let timed_online ~hosts ~duration_s ~k ~seed ~seconds ~fast =
  let setup = ref [] in
  let build =
    timed_build ~budget:(setup_budget ~fast) setup (fun i ->
        online_cluster ~hosts ~seed:(instance_seed ~seed ~k i))
  in
  let policy = hmn_policy () in
  let first = Array.make k None and sessions = ref [] in
  passes ~seconds ~once:fast ~k ~build (fun ~pass i cluster ->
      let config = online_config ~seed:(instance_seed ~seed ~k i) ~duration_s in
      let s = online_session ~cluster ~config ~policy in
      let arrivals = s.summary.Session.arrivals in
      attempt arrivals;
      sessions := s :: !sessions;
      match first.(i) with
      | None -> first.(i) <- Some s
      | Some f ->
        if not (same_session f s) then
          failure ~ops:arrivals
            (Printf.sprintf "pass %d: session %d rendered a different summary or journal"
               pass i));
  let firsts = firsts first in
  let refs = take (references k) firsts in
  let sum f xs = List.fold_left (fun acc s -> acc + f s) 0 xs in
  let calls_ms =
    List.concat_map (fun s -> List.map (fun c -> c *. 1000.) s.calls_s) !sessions
  in
  let paths = sum (fun s -> s.latency_n) firsts in
  let arrivals = sum (fun s -> s.summary.Session.arrivals) refs in
  [
    of_samples "setup_s" !setup;
    of_samples "map_s" (List.map (fun s -> s.map_total_s) !sessions);
    of_samples "pipeline_s" (List.map (fun s -> s.wall_s) !sessions);
    of_samples "request_ms_p50" calls_ms;
    of_tail "request_ms_tail" calls_ms;
    of_value ~samples:(List.length refs) "lbf"
      (mean (List.map (fun s -> s.summary.Session.mean_lbf) refs));
    of_value ~samples:paths "mean_latency_ms"
      (List.fold_left (fun acc s -> acc +. s.latency_sum) 0. firsts /. float_of_int (max 1 paths));
    of_value ~samples:arrivals "acceptance"
      (float_of_int (sum (fun s -> s.summary.Session.admitted) refs) /. float_of_int arrivals);
  ]

(* ---------- the traced run (--trace 1) ---------- *)

type stage_walls = { hosting_s : float; migration_s : float; networking_s : float }

let stage_layers ~t ~walls ~moves ~intra_host ~rows =
  let route_us = List.map (fun s -> s *. 1e6) rows.route_s in
  [
    ("hosting.wall_s", walls.hosting_s);
    ("hosting.alloc_mw", Layers.alloc_mw t "hosting");
    ("migration.wall_s", walls.migration_s);
    ("migration.moves", float_of_int moves);
    ("migration.alloc_mw", Layers.alloc_mw t "migration");
    ("networking.wall_s", walls.networking_s);
    ("networking.alloc_mw", Layers.alloc_mw t "networking");
    ("networking.routed", float_of_int rows.ok);
    ("networking.intra_host", float_of_int intra_host);
    ("networking.expanded", float_of_int rows.expanded_sum);
    ("networking.generated", float_of_int rows.generated_sum);
    ( "networking.labels_per_route",
      float_of_int rows.generated_sum /. float_of_int (max 1 rows.ok) );
    ("astar_prune.route_us_p50", percentile route_us 50.);
    ("astar_prune.route_us_p99", percentile route_us 99.);
    ("astar_prune.route_us_max", percentile route_us 100.);
    ("astar_prune.generated_p50", percentile rows.generated 50.);
    ("astar_prune.generated_p99", percentile rows.generated 99.);
    ("astar_prune.generated_max", percentile rows.generated 100.);
    ( "astar_prune.yield",
      float_of_int rows.hops_sum /. float_of_int (max 1 rows.generated_sum) );
  ]

let probe_layers (p : probe) =
  let t = p.layers in
  let us name = median (Layers.calls t name) *. 1e6 in
  [
    ("occupancy.tenants", float_of_int p.tenants);
    ("occupancy.residual_cluster_us", us "residual_cluster");
    ("admission.screen_us", us "screen");
    ("admission.hosting_us", us "hosting");
    ("admission.migration_us", us "migration");
    ("admission.networking_us", us "networking");
    ("admission.admitted_share", float_of_int p.admitted /. float_of_int p.probes);
    ("occupancy.admit_us", us "occupancy_admit");
    ("occupancy.release_us", us "occupancy_release");
    ("flight.record_us", us "flight_record");
    ("defrag.round_ms", Layers.total t "defrag_round" *. 1e3);
    ("defrag.moves", float_of_int p.defrag_moves);
  ]

let export_layers ~t ~bytes =
  [
    ("validator.wall_s", Layers.total t "validator");
    ("compile.wall_s", Layers.total t "compile");
    ("compile.bytes", float_of_int bytes);
    ("decompile.wall_s", Layers.total t "decompile");
    ("artifact_check.wall_s", Layers.total t "artifact_check");
  ]

let precompute_s cluster =
  median
    (List.init 3 (fun _ ->
         snd
           (Clock.time (fun () -> Latency_table.precompute (Latency_table.create cluster)))))

let overhead ~traced ~untraced = (traced -. untraced) /. untraced

(* Share of the map layer's time spent inside the three stages. *)
let coverage t =
  (Layers.total t "hosting" +. Layers.total t "migration" +. Layers.total t "networking")
  /. Layers.total t "map"

(* On a batch workload the three stages must account for at least 95%
   of the traced map time; the rest is the benchmark's glue. Online
   admissions are too small for that bound (the glue is a fixed few
   microseconds per call), so there it is only reported. *)
let check_coverage t =
  let c = coverage t in
  if c < 0.95 then
    failure (Printf.sprintf "the three stages cover only %.3f of the map time" c);
  c

(* Stage walls and counters come from the untraced run's stage report;
   the traced rebuild gives allocation, per-route rows and the export
   layers, and must reproduce the untraced mapping and counters. *)
let traced_batch b ~seed ~fast ~jobs =
  let problem, gen_s = Clock.time (fun () -> b.problem seed) in
  let _, gen_cluster_s = Clock.time (fun () -> b.cluster seed) in
  let cluster = problem.Problem.cluster in
  attempt 2;
  (* both the untraced and the traced unit start from a compacted heap,
     as in the timed run *)
  Gc.compact ();
  let reference =
    match batch_pipeline b ~jobs problem with
    | Ok r -> r
    | Error e -> failwith ("untraced reference: " ^ e)
  in
  let report = reference.report in
  let ns = Option.get report.Hmn.networking_stats in
  let moves = (Option.get report.Hmn.migration_stats).Migration.moves in
  let main = Layers.create () in
  let t = Some main in
  let rows = new_routes () and stages = new_stages () in
  let hosting = if b.sharded then Hosting.run_sharded ~jobs else Hosting.run in
  let max_moves = if b.sharded then Some (4 * Cluster.n_hosts cluster) else None in
  Trace.enable ();
  Gc.compact ();
  let mapping, bytes =
    layer t "pipeline" (fun () ->
        let outcome =
          layer t "map" (fun () -> traced_hmn t ~hosting ?max_moves ~rows ~stages problem)
        in
        match outcome.Mapper.result with
        | Error f -> failwith ("traced mapping failed: " ^ f.Mapper.reason)
        | Ok mapping -> (
          match export_and_check ~layers:main mapping with
          | Ok bytes -> (mapping, bytes)
          | Error e -> failwith ("traced export: " ^ e)))
  in
  let mismatch what = failure ("the traced run differs from the untraced run: " ^ what) in
  if Mapping.objective mapping <> reference.lbf then mismatch "lbf";
  if Mapping.total_hops mapping <> reference.hops then mismatch "total hops";
  if rows.expanded_sum <> ns.Networking.expanded then mismatch "expanded labels";
  if rows.generated_sum <> ns.Networking.generated then mismatch "generated labels";
  if rows.ok <> ns.Networking.routed then mismatch "routed links";
  if stages.moves <> moves then mismatch "migration moves";
  if stages.intra_host <> ns.Networking.intra_host then mismatch "intra-host links";
  let coverage = check_coverage main in
  let probe = run_probe ~fast ~cluster ~seed in
  let walls =
    {
      hosting_s = report.Hmn.hosting_s;
      migration_s = report.Hmn.migration_s;
      networking_s = report.Hmn.networking_s;
    }
  in
  [
    ("gen.cluster_s", gen_cluster_s);
    ("gen.venv_s", gen_s -. gen_cluster_s);
    ("latency_table.precompute_s", precompute_s cluster);
  ]
  @ stage_layers ~t:main ~walls ~moves ~intra_host:ns.Networking.intra_host ~rows
  @ export_layers ~t:main ~bytes
  @ [ ("pipeline.map_share", reference.map_s /. reference.pipeline_s) ]
  @ probe_layers probe
  @ [
      ( "trace.map_overhead_frac",
        overhead ~traced:(Layers.total main "map") ~untraced:reference.map_s );
      ( "trace.pipeline_overhead_frac",
        overhead ~traced:(Layers.total main "pipeline") ~untraced:reference.pipeline_s );
      ("trace.map_coverage", coverage);
    ]

(* The session has no stage report, so stage walls and counters come
   from the traced session, which builds the policy's HMN from its
   stages. *)
let traced_online ~hosts ~duration_s ~seed ~fast =
  let cluster, gen_cluster_s = Clock.time (fun () -> online_cluster ~hosts ~seed) in
  let config = online_config ~seed ~duration_s in
  let policy = hmn_policy () in
  Gc.compact ();
  let reference = online_session ~cluster ~config ~policy in
  let main = Layers.create () in
  let t = Some main in
  let rows = new_routes () and stages = new_stages () in
  let traced_policy =
    {
      policy with
      Mapper.run =
        (fun ~rng:_ problem ->
          layer t "map" (fun () -> traced_hmn t ~hosting:Hosting.run ~rows ~stages problem));
    }
  in
  Trace.enable ();
  Gc.compact ();
  let session =
    layer t "session" (fun () -> online_session ~cluster ~config ~policy:traced_policy)
  in
  attempt (2 * reference.summary.Session.arrivals);
  if not (same_session reference session) then
    failure ~ops:session.summary.Session.arrivals
      "the traced session's summary or journal differs from the untraced one";
  let probe = run_probe ~fast ~cluster ~seed in
  let walls =
    {
      hosting_s = Layers.total main "hosting";
      migration_s = Layers.total main "migration";
      networking_s = Layers.total main "networking";
    }
  in
  [
    ("gen.cluster_s", gen_cluster_s);
    ("gen.venv_s", probe.venv_s);
    ("latency_table.precompute_s", precompute_s cluster);
  ]
  @ stage_layers ~t:main ~walls ~moves:stages.moves ~intra_host:stages.intra_host ~rows
  @ export_layers ~t:probe.layers ~bytes:probe.bytes
  @ [ ("pipeline.map_share", reference.map_total_s /. reference.wall_s) ]
  @ probe_layers probe
  @ [
      ( "trace.map_overhead_frac",
        overhead ~traced:(Layers.total main "map") ~untraced:reference.map_total_s );
      ( "trace.pipeline_overhead_frac",
        overhead ~traced:(Layers.total main "session") ~untraced:reference.wall_s );
      ("trace.map_coverage", coverage main);
    ]

(* ---------- output ---------- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let iso8601_now () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

(* A metric the JSON cannot carry (nan, inf) is a failed check. *)
let finite name v =
  if Float.is_finite v then v
  else begin
    failure (Printf.sprintf "metric %s is not finite" name);
    0.
  end

let e2e_spec name = List.find (fun (n, _, _, _) -> n = name) end_to_end_specs

let e2e_row ~workload (r : e2e) =
  let _, unit, better, exact = e2e_spec r.metric in
  Json.Obj
    ([
       ("workload", Json.str workload);
       ("metric", Json.str r.metric);
       ("unit", Json.str unit);
       ("better", Json.str (match better with Lower -> "lower" | Higher -> "higher"));
       ("exact", Json.Bool exact);
       ("samples", Json.int r.samples);
       ("median", Json.float r.median);
       ("q1", Json.float r.q1);
       ("q3", Json.float r.q3);
     ]
    @ match r.percentile with Some p -> [ ("percentile", Json.float p) ] | None -> [])

let layer_row ~workload (name, value) =
  Json.Obj
    [
      ("workload", Json.str workload);
      ("layer", Json.str (String.sub name 0 (String.index name '.')));
      ("metric", Json.str name);
      ("value", Json.float value);
      ("unit", Json.str (List.assoc name per_layer_units));
    ]

let usage_error msg =
  prerr_endline ("hmn_bench: " ^ msg);
  exit 2

let () =
  let workload_name = ref "" and seed = ref 42 and seconds = ref 10. in
  let trace = ref 0 and fast = ref false in
  let out_dir = ref "hmnbench/out" and rev = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload_name, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring time of a timed run (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 timed run (0) or traced run (1)");
      ("--fast", Arg.Set fast, " reduced sizes, one repetition (smoke)");
      ("--out-dir", Arg.Set_string out_dir, "DIR result and trace files (default hmnbench/out)");
      ("--rev", Arg.Set_string rev, "REV git revision to stamp into the result");
    ]
  in
  Arg.parse spec
    (fun a -> usage_error ("unexpected argument " ^ a))
    "hmn_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--fast]";
  if !trace <> 0 && !trace <> 1 then usage_error "--trace takes 0 or 1";
  let { kind; instances = k } =
    match workload !workload_name ~fast:!fast with
    | Some w -> w
    | None ->
      usage_error
        (Printf.sprintf "unknown workload %S (one of: %s)" !workload_name
           (String.concat ", " workload_names))
  in
  let jobs = min 2 (Domain.recommended_domain_count ()) in
  let seed = !seed and fast = !fast and seconds = !seconds in
  let e2e, layers =
    try
      if !trace = 0 then
        let rows =
          match kind with
          | Batch b -> timed_batch b ~k ~seed ~seconds ~fast ~jobs
          | Online { hosts; duration_s } ->
            timed_online ~hosts ~duration_s ~k ~seed ~seconds ~fast
        in
        (rows @ [ of_value "heap_peak_mb" (heap_peak_mb ()) ], [])
      else
        (* the traced run takes the run's first seeded instance *)
        let seed = instance_seed ~seed ~k (references k) in
        ( [],
          match kind with
          | Batch b -> traced_batch b ~seed ~fast ~jobs
          | Online { hosts; duration_s } -> traced_online ~hosts ~duration_s ~seed ~fast )
    with e ->
      failure ("exception: " ^ Printexc.to_string e);
      ([], [])
  in
  let workload = !workload_name in
  let e2e =
    List.map
      (fun r ->
        let f = finite r.metric in
        { r with median = f r.median; q1 = f r.q1; q3 = f r.q3 })
      e2e
  in
  let layers = List.map (fun (n, v) -> (n, finite n v)) layers in
  let names = if !trace = 0 then List.map (fun r -> r.metric) e2e else List.map fst layers in
  let expected =
    if !trace = 0 then List.map (fun (n, _, _, _) -> n) end_to_end_specs
    else List.map fst per_layer_units
  in
  if counts.failed = 0 && List.sort compare names <> List.sort compare expected then
    failure "the run did not produce every metric";
  let e2e_rows = List.map (e2e_row ~workload) e2e in
  let layer_rows = List.map (layer_row ~workload) layers in
  let correct = counts.failed = 0 in
  let base = Filename.concat !out_dir (Printf.sprintf "%s-seed%d-trace%d" workload seed !trace) in
  let doc =
    Json.Obj
      [
        ("schema_version", Json.int 1);
        ("workload", Json.str workload);
        ("trace", Json.Bool (!trace = 1));
        ("fast", Json.Bool fast);
        ("seconds", Json.float seconds);
        ( "stamp",
          Json.Obj
            [
              ("git_rev", Json.str !rev);
              ("nproc", Json.int (Domain.recommended_domain_count ()));
              ("jobs", Json.int jobs);
              ("ocaml", Json.str Sys.ocaml_version);
              ("seed", Json.int seed);
              ("generated_at", Json.str (iso8601_now ()));
            ] );
        ("correct", Json.Bool correct);
        ("attempted", Json.int counts.attempted);
        ("failed", Json.int counts.failed);
        ("end_to_end", Json.Arr e2e_rows);
        ("per_layer", Json.Arr layer_rows);
      ]
  in
  write_file (base ^ ".json") (Json.to_string ~pretty:true doc);
  if Trace.enabled () then Trace.write ~path:(base ^ ".chrome.json");
  let metric_of value unit = Json.Obj [ ("value", Json.float value); ("unit", Json.str unit) ] in
  let metrics =
    if !trace = 0 then
      List.map
        (fun r ->
          let _, unit, _, _ = e2e_spec r.metric in
          (r.metric, metric_of r.median unit))
        e2e
    else List.map (fun (n, v) -> (n, metric_of v (List.assoc n per_layer_units))) layers
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.int (max 1 counts.attempted));
            ("failed", Json.int counts.failed);
            ("metrics", Json.Obj metrics);
          ]));
  exit (if correct then 0 else 1)
