(* hmn — command-line frontend to the testbed-mapping library.

   Subcommands:
     list          enumerate the available heuristics
     map           generate an instance, run a heuristic, print the mapping
     profile       run one mapping with full instrumentation and report
                   per-stage times, search-effort counters, and optionally
                   a Chrome trace
     experiments   regenerate the paper's Tables 2-3, correlation, Figure 1
     figure1       only the Figure 1 sweep
     online        run the online tenant service (streaming arrivals and
                   departures with admission control and defragmentation),
                   or a policy-comparison report across load levels
     export        compile a mapping into deployable testbed artifacts
                   (VM launch plan, bridge + tc/netem shaping plan,
                   manifest), with a round-trip dry-run verifier
     dot           emit the generated cluster or virtual topology as DOT *)

open Cmdliner

(* ---- shared options ---- *)

(* [conv] restricted to the values [ok] accepts: anything else is a
   usage error (exit 2), not an exception from inside the library. *)
let checked conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok x when ok x -> Ok x
    | Ok _ ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = checked Arg.int ~expected:"a positive integer" (fun n -> n > 0)

let positive_float =
  checked Arg.float ~expected:"a positive finite number" (fun x ->
      Float.is_finite x && x > 0.)

let unit_float =
  checked Arg.float ~expected:"a number in [0, 1]" (fun x -> x >= 0. && x <= 1.)

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"INT" ~doc:"Random seed.")

(* Without the flag, HMN_JOBS goes through [Runner.env_int], which falls
   back to the default on a value that is not a positive integer. *)
let jobs_t =
  let resolve = function
    | Some jobs -> jobs
    | None ->
      Hmn_experiments.Runner.env_int "HMN_JOBS" (Hmn_prelude.Domain_pool.default_jobs ())
  in
  Term.(
    const resolve
    $ Arg.(
        value & opt (some positive_int) None
        & info [ "jobs"; "j" ] ~docv:"INT"
            ~doc:
              "Worker domains (default: $(b,HMN_JOBS) or the machine's core \
               count minus one). Any value produces byte-identical output; \
               only wall time changes."))

let cluster_t =
  let kind_conv =
    Arg.enum [ ("torus", Hmn_experiments.Scenario.Torus);
               ("switched", Hmn_experiments.Scenario.Switched) ]
  in
  Arg.(
    value
    & opt kind_conv Hmn_experiments.Scenario.Torus
    & info [ "cluster" ] ~docv:"torus|switched" ~doc:"Physical topology.")

let guests_t =
  Arg.(
    value & opt positive_int 200
    & info [ "guests"; "n" ] ~docv:"INT" ~doc:"Number of guests.")

let density_t =
  Arg.(
    value & opt unit_float 0.02
    & info [ "density" ] ~docv:"FLOAT" ~doc:"Virtual graph edge density.")

let workload_t =
  let wl_conv =
    Arg.enum [ ("high", Hmn_experiments.Scenario.High_level);
               ("low", Hmn_experiments.Scenario.Low_level) ]
  in
  Arg.(
    value
    & opt wl_conv Hmn_experiments.Scenario.High_level
    & info [ "workload" ] ~docv:"high|low" ~doc:"Workload profile (Table 1).")

let build_problem ~seed ~cluster_kind ~guests ~density ~workload =
  let rng = Hmn_rng.Rng.create seed in
  let cluster = Hmn_experiments.Scenario.build_cluster cluster_kind ~rng in
  let venv =
    Hmn_vnet.Venv_gen.generate
      ~scale_to_fit:(cluster, Hmn_experiments.Setup.fit_fraction)
      ~profile:(Hmn_experiments.Scenario.workload_profile workload)
      ~n:guests ~density ~rng ()
  in
  Hmn_mapping.Problem.make ~cluster ~venv

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun m ->
        Printf.printf "%-5s %s\n" m.Hmn_core.Mapper.name m.Hmn_core.Mapper.description)
      (Hmn_core.Registry.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available mapping heuristics.")
    Term.(const run $ const ())

(* ---- map ---- *)

let map_cmd =
  let heuristic_t =
    Arg.(
      value & opt string "HMN"
      & info [ "heuristic" ] ~docv:"NAME" ~doc:"Heuristic to run (see $(b,list)).")
  in
  let verbose_t =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print placement and link tables.")
  in
  let simulate_t =
    Arg.(value & flag & info [ "simulate" ] ~doc:"Run the emulated experiment too.")
  in
  let save_t =
    Arg.(
      value & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Write the problem and mapping as a JSON bundle.")
  in
  let run seed cluster_kind guests density workload heuristic verbose simulate save =
    match Hmn_core.Registry.find heuristic with
    | None ->
      Printf.eprintf "unknown heuristic %s; try `hmn_cli list'\n" heuristic;
      exit 2
    | Some mapper ->
      let problem = build_problem ~seed ~cluster_kind ~guests ~density ~workload in
      Format.printf "%a@.@." Hmn_mapping.Problem.pp_summary problem;
      let outcome = mapper.Hmn_core.Mapper.run ~rng:(Hmn_rng.Rng.create (seed + 1)) problem in
      Format.printf "%s: %a@." mapper.Hmn_core.Mapper.name Hmn_core.Mapper.pp_outcome
        outcome;
      (match outcome.Hmn_core.Mapper.result with
      | Error _ -> exit 1
      | Ok mapping ->
        (match (Hmn_validate.Validator.check mapping).violations with
        | [] -> print_endline "constraints: all of Eqs. (1)-(9) hold"
        | vs ->
          Printf.printf "constraints: %d VIOLATIONS\n" (List.length vs);
          List.iter
            (fun v -> Format.printf "  %a@." Hmn_validate.Validator.pp_violation v)
            vs);
        print_endline (Hmn_mapping.Report.summary mapping);
        if verbose then begin
          print_newline ();
          print_string (Hmn_mapping.Report.placement_table mapping);
          print_newline ();
          print_string (Hmn_mapping.Report.link_table mapping);
          print_newline ();
          print_endline "Hottest physical links:";
          print_string (Hmn_mapping.Report.hot_links mapping)
        end;
        if simulate then begin
          let sim = Hmn_emulation.Exec_sim.run mapping in
          Printf.printf "emulated experiment: %.3f s (%d events)\n"
            sim.Hmn_emulation.Exec_sim.makespan_s sim.Hmn_emulation.Exec_sim.events
        end;
        match save with
        | None -> ()
        | Some path ->
          Hmn_io.Codec.save_bundle ~path mapping;
          Printf.printf "wrote %s\n" path)
  in
  Cmd.v
    (Cmd.info "map" ~doc:"Generate an instance and map it with one heuristic.")
    Term.(
      const run $ seed_t $ cluster_t $ guests_t $ density_t $ workload_t
      $ heuristic_t $ verbose_t $ simulate_t $ save_t)

(* ---- profile ---- *)

let profile_cmd =
  let module Metrics = Hmn_obs.Metrics in
  let module Trace = Hmn_obs.Trace in
  let module Pretty_table = Hmn_prelude.Pretty_table in
  let heuristic_t =
    Arg.(
      value & opt string "HMN"
      & info [ "heuristic" ] ~docv:"NAME" ~doc:"Heuristic to profile (see $(b,list)).")
  in
  let trace_t =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Also write a Chrome trace_event JSON of every span (stages, \
             virtual-link routing calls); open it in about:tracing or \
             https://ui.perfetto.dev.")
  in
  let prom_t =
    Arg.(
      value & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "Also write the metrics snapshot in Prometheus text exposition \
             format.")
  in
  let run seed cluster_kind guests density workload heuristic trace prom =
    match Hmn_core.Registry.find heuristic with
    | None ->
      Printf.eprintf "unknown heuristic %s; try `hmn_cli list'\n" heuristic;
      exit 2
    | Some mapper ->
      Metrics.enable ();
      Metrics.reset ();
      if trace <> None then Trace.enable ();
      let problem = build_problem ~seed ~cluster_kind ~guests ~density ~workload in
      Format.printf "%a@.@." Hmn_mapping.Problem.pp_summary problem;
      let outcome =
        mapper.Hmn_core.Mapper.run ~rng:(Hmn_rng.Rng.create (seed + 1)) problem
      in
      Format.printf "%s: %a@." mapper.Hmn_core.Mapper.name Hmn_core.Mapper.pp_outcome
        outcome;
      (match outcome.Hmn_core.Mapper.last_failure with
      | Some f when Result.is_ok outcome.Hmn_core.Mapper.result ->
        Printf.printf "last failed try: %s (%s)\n" f.Hmn_core.Mapper.stage
          f.Hmn_core.Mapper.reason
      | _ -> ());
      print_newline ();
      (* Per-stage wall time. Retrying baselines report no stage split;
         say so instead of printing an empty table. *)
      (match outcome.Hmn_core.Mapper.stage_seconds with
      | [] ->
        Printf.printf "no per-stage breakdown (%d tries, %.3f s total)\n\n"
          outcome.Hmn_core.Mapper.tries outcome.Hmn_core.Mapper.elapsed_s
      | stages ->
        let total = outcome.Hmn_core.Mapper.elapsed_s in
        let t =
          Pretty_table.create
            ~aligns:[ Pretty_table.Left; Right; Right ]
            ~header:[ "stage"; "seconds"; "% of total" ]
            ()
        in
        List.iter
          (fun (stage, s) ->
            Pretty_table.add_row t
              [
                stage;
                Printf.sprintf "%.6f" s;
                (if total > 0. then Printf.sprintf "%.1f" (100. *. s /. total)
                 else "-");
              ])
          stages;
        Pretty_table.add_row t
          [ "total"; Printf.sprintf "%.6f" total; (if total > 0. then "100.0" else "-") ];
        Pretty_table.print t;
        print_newline ());
      let snap = Metrics.snapshot () in
      if snap.Metrics.counters <> [] then begin
        let t =
          Pretty_table.create
            ~aligns:[ Pretty_table.Left; Right ]
            ~header:[ "counter"; "value" ] ()
        in
        List.iter
          (fun (name, v) -> Pretty_table.add_row t [ name; string_of_int v ])
          snap.Metrics.counters;
        Pretty_table.print t;
        print_newline ()
      end;
      if snap.Metrics.gauge_maxima <> [] then begin
        let t =
          Pretty_table.create
            ~aligns:[ Pretty_table.Left; Right ]
            ~header:[ "gauge"; "max" ] ()
        in
        List.iter
          (fun (name, v) -> Pretty_table.add_row t [ name; string_of_int v ])
          snap.Metrics.gauge_maxima;
        Pretty_table.print t;
        print_newline ()
      end;
      print_string (Metrics.render { snap with Metrics.counters = []; gauge_maxima = [] });
      (match trace with
      | None -> ()
      | Some path ->
        Trace.write ~path;
        Printf.printf "wrote %s (%d spans; load in about:tracing or Perfetto)\n"
          path (Trace.span_count ()));
      (match prom with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (Hmn_obs.Expose.render snap);
        close_out oc;
        Printf.printf "wrote %s (Prometheus text exposition)\n" path);
      if Result.is_error outcome.Hmn_core.Mapper.result then exit 1
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one instrumented mapping and report per-stage wall time plus \
          the search-effort counters (A*Prune expansions and prune causes, \
          DFS backtracks, migration moves, retries, residual operations).")
    Term.(
      const run $ seed_t $ cluster_t $ guests_t $ density_t $ workload_t
      $ heuristic_t $ trace_t $ prom_t)

(* ---- validate ---- *)

let validate_cmd =
  let file_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"JSON bundle.")
  in
  let run file =
    match Hmn_io.Codec.load_bundle ~path:file with
    | Error msg ->
      Printf.eprintf "cannot load %s: %s\n" file msg;
      exit 2
    | Ok mapping -> (
      match (Hmn_validate.Validator.check mapping).violations with
      | [] ->
        print_endline "valid: all of Eqs. (1)-(9) hold";
        print_endline (Hmn_mapping.Report.summary mapping)
      | vs ->
        Printf.printf "INVALID: %d violations\n" (List.length vs);
        List.iter
          (fun v -> Format.printf "  %a@." Hmn_validate.Validator.pp_violation v)
          vs;
        exit 1)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Load a saved mapping bundle and re-check every constraint.")
    Term.(const run $ file_t)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let module Fuzz = Hmn_validate.Fuzz in
  let instances_t =
    Arg.(
      value & opt int 25
      & info [ "instances" ] ~docv:"INT" ~doc:"Number of random instances.")
  in
  let smoke_t =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Fixed-seed CI mode: 25 instances from the pinned smoke seed.")
  in
  let mapper_t =
    Arg.(
      value & opt_all string []
      & info [ "mapper" ] ~docv:"NAME"
          ~doc:"Restrict to this heuristic (repeatable; default: all).")
  in
  (* Pinned-instance options, used by the repro commands the fuzzer
     prints for (shrunk) failures. When any is given, all must be. *)
  let pin_cluster_t =
    Arg.(
      value
      & opt (some (Arg.enum [ ("torus", `Torus); ("switched", `Switched) ])) None
      & info [ "cluster" ] ~docv:"torus|switched" ~doc:"Pin the cluster shape.")
  in
  let rows_t =
    Arg.(
      value & opt positive_int 3
      & info [ "rows" ] ~docv:"INT" ~doc:"Torus rows (pinned mode).")
  in
  let cols_t =
    Arg.(
      value & opt positive_int 3
      & info [ "cols" ] ~docv:"INT" ~doc:"Torus cols (pinned mode).")
  in
  let hosts_t =
    Arg.(
      value & opt positive_int 8
      & info [ "hosts" ] ~docv:"INT" ~doc:"Switched hosts (pinned mode).")
  in
  let pin_guests_t =
    Arg.(
      value & opt (some positive_int) None
      & info [ "guests"; "n" ] ~docv:"INT" ~doc:"Pin the number of guests.")
  in
  let pin_density_t =
    Arg.(
      value & opt (some unit_float) None
      & info [ "density" ] ~docv:"FLOAT" ~doc:"Pin the virtual edge density.")
  in
  let pin_workload_t =
    Arg.(
      value & opt (some (Arg.enum [ ("high", false); ("low", true) ])) None
      & info [ "workload" ] ~docv:"high|low" ~doc:"Pin the workload profile.")
  in
  let run seed instances smoke mappers pin_cluster rows cols hosts pin_guests
      pin_density pin_workload =
    let mappers =
      match mappers with
      | [] -> None
      | names ->
        Some
          (List.map
             (fun name ->
               match Hmn_core.Registry.find name with
               | Some m -> m
               | None ->
                 Printf.eprintf "unknown heuristic %s; try `hmn_cli list'\n" name;
                 exit 2)
             names)
    in
    let params =
      match (pin_cluster, pin_guests, pin_density, pin_workload) with
      | None, None, None, None -> None
      | Some kind, Some n_guests, Some density, Some low_level ->
        let shape =
          match kind with
          | `Torus -> Fuzz.Torus { rows; cols }
          | `Switched -> Fuzz.Switched { hosts }
        in
        Some { Fuzz.shape; n_guests; density; low_level }
      | _ ->
        prerr_endline
          "hmn_cli fuzz: --cluster, --guests, --density and --workload must be \
           given together (they pin one exact instance)";
        exit 2
    in
    let seed = if smoke then Fuzz.smoke_seed else seed in
    let count = if smoke then 25 else instances in
    let stats = Fuzz.run ?mappers ?params ~seed ~count () in
    Format.printf "%a@." Fuzz.pp_stats stats;
    if stats.Fuzz.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: map random instances with every heuristic, \
          re-validate each mapping against the paper's invariants, and \
          cross-check the router against exhaustive oracles.")
    Term.(
      const run $ seed_t $ instances_t $ smoke_t $ mapper_t $ pin_cluster_t
      $ rows_t $ cols_t $ hosts_t $ pin_guests_t $ pin_density_t $ pin_workload_t)

(* ---- experiments ---- *)

let experiments_cmd =
  let reps_t =
    Arg.(
      value & opt (some int) None
      & info [ "reps" ] ~docv:"INT"
          ~doc:"Repetitions per scenario (default: $(b,HMN_REPS) or 5; paper: 30).")
  in
  let csv_t =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write per-cell results as CSV.")
  in
  let trace_t =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a Chrome trace_event JSON of the sweep (one timeline row \
             per worker domain) and write it to $(docv); equivalent to \
             $(b,HMN_TRACE).")
  in
  let run reps jobs csv trace =
    let config =
      let c = Hmn_experiments.Runner.default_config () in
      let c =
        match reps with
        | None -> c
        | Some reps -> { c with Hmn_experiments.Runner.reps }
      in
      let c = { c with Hmn_experiments.Runner.jobs } in
      match trace with
      | None -> c
      | Some _ -> { c with Hmn_experiments.Runner.trace }
    in
    let t0 = Hmn_prelude.Clock.now_s () in
    let results = Hmn_experiments.Runner.run ~config () in
    (* Wall time goes to stderr so stdout stays byte-diffable across
       runs and jobs counts (the mapping-time table aside). *)
    Printf.eprintf "timing: sweep wall=%.3fs jobs=%d\n"
      (Hmn_prelude.Clock.elapsed_s t0) config.Hmn_experiments.Runner.jobs;
    (match config.Hmn_experiments.Runner.trace with
    | Some path -> Printf.eprintf "wrote %s (load in about:tracing or Perfetto)\n" path
    | None -> ());
    print_string (Hmn_experiments.Setup.render ());
    print_newline ();
    print_string (Hmn_experiments.Tables.table2 results);
    print_newline ();
    print_string (Hmn_experiments.Tables.table3 results);
    print_newline ();
    print_string (Hmn_experiments.Tables.mapping_time results);
    print_newline ();
    print_string (Hmn_experiments.Tables.correlation_report results);
    print_newline ();
    print_string
      (Hmn_experiments.Paper_check.render
         (Hmn_experiments.Paper_check.check_all results));
    (* HMN_METRICS: the counter/histogram aggregates merged over every
       worker domain, identical at any --jobs *)
    if config.Hmn_experiments.Runner.metrics then begin
      print_newline ();
      print_string (Hmn_obs.Metrics.render (Hmn_obs.Metrics.snapshot ()))
    end;
    match csv with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc (Hmn_experiments.Csv.cells results);
      close_out oc;
      Printf.printf "wrote %s\n" file
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's Tables 2-3 and the correlation result.")
    Term.(const run $ reps_t $ jobs_t $ csv_t $ trace_t)

(* ---- figure1 ---- *)

let figure1_cmd =
  let reps_t =
    Arg.(value & opt int 3 & info [ "reps" ] ~docv:"INT" ~doc:"Repetitions per point.")
  in
  let run reps seed =
    let points = Hmn_experiments.Figure1.run ~reps ~seed () in
    print_string (Hmn_experiments.Figure1.render points)
  in
  Cmd.v
    (Cmd.info "figure1" ~doc:"Regenerate Figure 1 (HMN mapping time vs links).")
    Term.(const run $ reps_t $ seed_t)

(* ---- ablation ---- *)

let ablation_cmd =
  let reps_t =
    Arg.(value & opt int 3 & info [ "reps" ] ~docv:"INT" ~doc:"Repetitions per point.")
  in
  let which_t =
    Arg.(
      value
      & opt
          (Arg.enum
             [ ("all", `All); ("migration", `Migration); ("routing", `Routing);
               ("topology", `Topology) ])
          `All
      & info [ "which" ] ~docv:"all|migration|routing|topology"
          ~doc:"Which ablation study to run.")
  in
  let run reps which =
    let text =
      match which with
      | `All -> Hmn_experiments.Ablation.all ~reps ()
      | `Migration -> Hmn_experiments.Ablation.migration ~reps ()
      | `Routing -> Hmn_experiments.Ablation.routing_metric ~reps ()
      | `Topology -> Hmn_experiments.Ablation.topology_sweep ~reps ()
    in
    print_string text
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Run the Migration / routing-metric / topology ablation studies.")
    Term.(const run $ reps_t $ which_t)

(* ---- online and slo ---- *)

(* The pinned session behind [online --smoke] and [slo --smoke]: small
   enough for CI, busy enough to exercise admission, rejection,
   departures and defragmentation. *)
let smoke_session () =
  ( Hmn_testbed.Cluster_gen.torus_cluster ~rows:3 ~cols:4 ~rng:(Hmn_rng.Rng.create 7) (),
    {
      Hmn_online.Service.default_config with
      seed = 11;
      arrival_rate_per_s = 1. /. 45.;
      mean_holding_s = 300.;
      duration_s = 1800.;
      guests_lo = 3;
      guests_hi = 6;
      scale_frac = 0.3;
    } )

(* The seeded tenant stream [online] and [slo] both drive: the cluster
   and a session config with the service's default defragmentation, no
   defrag-assisted admission and no validation. *)
let session_t =
  let d = Hmn_online.Service.default_config in
  let rate_t =
    Arg.(
      value & opt positive_float d.arrival_rate_per_s
      & info [ "rate" ] ~docv:"FLOAT"
          ~doc:"Base arrival rate, requests per simulated second.")
  in
  let holding_t =
    Arg.(
      value & opt positive_float d.mean_holding_s
      & info [ "holding" ] ~docv:"SECONDS" ~doc:"Mean tenant holding time (exponential).")
  in
  let duration_t =
    Arg.(
      value & opt float d.duration_s
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Arrival horizon (simulated).")
  in
  let guests_lo_t =
    Arg.(
      value & opt positive_int d.guests_lo
      & info [ "guests-lo" ] ~docv:"INT" ~doc:"Minimum guests per tenant.")
  in
  let guests_hi_t =
    Arg.(
      value & opt positive_int d.guests_hi
      & info [ "guests-hi" ] ~docv:"INT" ~doc:"Maximum guests per tenant.")
  in
  let density_t =
    Arg.(
      value & opt unit_float d.density
      & info [ "density" ] ~docv:"FLOAT" ~doc:"Virtual edge density within each tenant.")
  in
  let scale_t =
    Arg.(
      value & opt positive_float d.scale_frac
      & info [ "scale" ] ~docv:"FRACTION"
          ~doc:"Per-tenant feasibility calibration against the full cluster.")
  in
  let make seed cluster_kind workload arrival_rate_per_s mean_holding_s duration_s
      guests_lo guests_hi density scale_frac =
    if guests_lo > guests_hi then
      `Error (true, "--guests-lo must not exceed --guests-hi")
    else
      `Ok
        ( Hmn_experiments.Scenario.build_cluster cluster_kind
            ~rng:(Hmn_rng.Rng.create seed),
          {
            d with
            seed;
            arrival_rate_per_s;
            mean_holding_s;
            duration_s;
            guests_lo;
            guests_hi;
            density;
            profile = Hmn_experiments.Scenario.workload_profile workload;
            scale_frac;
          } )
  in
  Term.(
    ret
      (const make $ seed_t $ cluster_t $ workload_t $ rate_t $ holding_t
      $ duration_t $ guests_lo_t $ guests_hi_t $ density_t $ scale_t))

let loads_t =
  Arg.(
    value
    & opt (list positive_float) Hmn_experiments.Online_report.default_loads
    & info [ "loads" ] ~docv:"X,Y,..."
        ~doc:"Offered-load multipliers on the base arrival rate.")

let report_csv_t =
  Arg.(
    value & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the report cells as CSV.")

let online_cmd =
  let module Service = Hmn_online.Service in
  let module Defrag = Hmn_online.Defrag in
  let module Flight = Hmn_online.Flight in
  let module Metrics = Hmn_obs.Metrics in
  let module Trace = Hmn_obs.Trace in
  let module Expose = Hmn_obs.Expose in
  let policy_t =
    Arg.(
      value & opt_all string []
      & info [ "policy" ] ~docv:"NAME"
          ~doc:
            "Admission policy (any registered heuristic; see $(b,list)). \
             Repeatable with $(b,--report); default HMN, or HMN,R,HS for a \
             report.")
  in
  let no_defrag_t =
    Arg.(value & flag & info [ "no-defrag" ] ~doc:"Disable periodic defragmentation.")
  in
  let defrag_interval_t =
    Arg.(
      value & opt positive_float 120.
      & info [ "defrag-interval" ] ~docv:"SECONDS" ~doc:"Simulated seconds between defrag checks.")
  in
  let defrag_trigger_t =
    Arg.(
      value & opt float 1.0
      & info [ "defrag-trigger" ] ~docv:"FACTOR"
          ~doc:
            "Defragment when the occupied LBF exceeds FACTOR times the empty \
             cluster's LBF.")
  in
  let defrag_moves_t =
    Arg.(
      value & opt int 4
      & info [ "defrag-moves" ] ~docv:"INT" ~doc:"Maximum migrations per defrag round.")
  in
  let validate_t =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Independently validate the full multi-tenant state after every \
             arrival, departure, and defrag move (also forced by \
             $(b,HMN_VALIDATE)).")
  in
  let smoke_t =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Fixed-seed CI mode: a pinned 3x4 torus and a short pinned \
             workload, with validation forced on. Output is byte-identical \
             across runs and machines.")
  in
  let report_t =
    Arg.(
      value & flag
      & info [ "report" ]
          ~doc:"Run the policy-comparison grid instead of a single session.")
  in
  let events_t =
    Arg.(
      value & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Write the admission-decision journal as JSONL: one record per \
             admit/reject/departure/defrag-move, each rejection carrying its \
             cause from the closed taxonomy and the binding constraint. \
             Deterministic for a fixed seed.")
  in
  let timeline_t =
    Arg.(
      value & opt (some string) None
      & info [ "timeline" ] ~docv:"FILE"
          ~doc:
            "Write the simulated-clock time series (tenants, guests, LBF, \
             fragmentation, memory/bandwidth utilization, residual-bandwidth \
             dispersion, per-rack memory) as CSV.")
  in
  let trace_out_t =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the timeline as Chrome trace_event counter tracks \
             (open in about:tracing or https://ui.perfetto.dev).")
  in
  let prom_t =
    Arg.(
      value & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "Write the session's metrics snapshot in Prometheus text \
             exposition format (implies metrics collection).")
  in
  let defrag_on_reject_t =
    Arg.(
      value & flag
      & info [ "defrag-on-reject" ]
          ~doc:
            "Defrag-assisted admission: on a non-screen rejection, run one \
             defragmentation round and retry the request once against the \
             compacted cluster.")
  in
  let export_on_admit_t =
    Arg.(
      value & opt (some string) None
      & info [ "export-on-admit" ] ~docv:"DIR"
          ~doc:
            "Realize every admitted tenant as a deployable artifact delta \
             (shell grammar) under $(i,DIR)/t$(i,ID)/, verified by the \
             round-trip checker at write time. Progress goes to stderr; the \
             session summary is unchanged.")
  in
  let run session policies no_defrag defrag_interval defrag_trigger
      defrag_moves validate smoke report loads csv events timeline trace_out
      prom defrag_on_reject export_on_admit =
    let defrag =
      if no_defrag then None
      else
        Some
          {
            Defrag.interval_s = defrag_interval;
            trigger = defrag_trigger;
            max_moves_per_round = defrag_moves;
          }
    in
    let cluster, config = if smoke then smoke_session () else session in
    let config =
      { config with Service.defrag; defrag_on_reject; validate = smoke || validate }
    in
    if Sys.getenv_opt "HMN_METRICS" <> None || prom <> None then begin
      Metrics.enable ();
      Metrics.reset ()
    end;
    if trace_out <> None then Trace.enable ();
    let write_file path contents what =
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      Printf.printf "wrote %s (%s)\n" path what
    in
    try
      if report then begin
        let policies =
          if policies = [] then Hmn_experiments.Online_report.default_policies
          else policies
        in
        match
          Hmn_experiments.Online_report.run ~policies ~loads ~cluster ~config ()
        with
        | Error msg ->
          Printf.eprintf "hmn_cli online: %s\n" msg;
          exit 2
        | Ok results ->
          print_string (Hmn_experiments.Online_report.table results);
          (match csv with
          | None -> ()
          | Some file ->
            let oc = open_out file in
            output_string oc (Hmn_experiments.Online_report.csv results);
            close_out oc;
            Printf.printf "wrote %s\n" file)
      end
      else begin
        let name = match policies with [] -> "HMN" | name :: _ -> name in
        match Hmn_online.Admission.find_policy name with
        | Error msg ->
          Printf.eprintf "hmn_cli online: %s\n" msg;
          exit 2
        | Ok policy ->
          let want_journal = events <> None in
          let want_timeline = timeline <> None || trace_out <> None in
          let flight =
            if want_journal || want_timeline then
              Some
                (Flight.create ~journal:want_journal ~timeline:want_timeline
                   ~quantiles:true cluster)
            else None
          in
          let exported = ref 0 in
          let export_bad = ref 0 in
          let on_admit =
            match export_on_admit with
            | None -> None
            | Some dir ->
              Some
                (fun (t : Hmn_online.Tenant.t) ->
                  let bundle =
                    Hmn_artifact.Compile.of_tenant
                      ~format:Hmn_artifact.Spec.Shell ~cluster
                      ~venv:t.Hmn_online.Tenant.venv ~id:t.Hmn_online.Tenant.id
                      ~hosts:t.Hmn_online.Tenant.hosts
                      ~paths:t.Hmn_online.Tenant.paths ()
                  in
                  let tdir =
                    Filename.concat dir
                      (Printf.sprintf "t%d" t.Hmn_online.Tenant.id)
                  in
                  Hmn_artifact.Compile.write ~dir:tdir bundle;
                  incr exported;
                  (* dry-run verify each delta as it lands *)
                  match
                    Hmn_artifact.Decompile.run
                      ~files:bundle.Hmn_artifact.Compile.files
                  with
                  | Error msg ->
                    incr export_bad;
                    Printf.eprintf "export-on-admit: tenant %d: %s\n"
                      t.Hmn_online.Tenant.id msg
                  | Ok d ->
                    let report =
                      Hmn_validate.Artifact_check.check_tenant ~cluster
                        ~venv:t.Hmn_online.Tenant.venv
                        ~hosts:t.Hmn_online.Tenant.hosts
                        ~paths:t.Hmn_online.Tenant.paths d
                    in
                    if not (Hmn_validate.Artifact_check.ok report) then begin
                      incr export_bad;
                      Format.eprintf "export-on-admit: tenant %d: %a@."
                        t.Hmn_online.Tenant.id
                        Hmn_validate.Artifact_check.pp_report report
                    end)
          in
          let summary = Service.run ?flight ?on_admit ~cluster ~policy config in
          print_string (Hmn_online.Session.render_summary summary);
          (match export_on_admit with
          | None -> ()
          | Some dir ->
            Printf.eprintf
              "export-on-admit: %d tenant delta(s) under %s, %d with \
               violations\n"
              !exported dir !export_bad;
            if !export_bad > 0 then exit 1);
          (match flight with
          | None -> ()
          | Some f ->
            (match (events, Flight.events_jsonl f) with
            | Some path, Some jsonl ->
              write_file path jsonl "admission-decision journal"
            | _ -> ());
            (match (timeline, Flight.timeline_csv f) with
            | Some path, Some csv_text -> write_file path csv_text "timeline CSV"
            | _ -> ());
            match trace_out with
            | None -> ()
            | Some path ->
              Flight.emit_trace_counters f;
              Trace.write ~path;
              Printf.printf "wrote %s (counter tracks; load in about:tracing or Perfetto)\n"
                path)
      end;
      if Metrics.enabled () then begin
        (match prom with
        | None -> ()
        | Some path ->
          write_file path
            (Expose.render (Metrics.snapshot ()))
            "Prometheus text exposition");
        if Sys.getenv_opt "HMN_METRICS" <> None then
          print_string (Metrics.render (Metrics.snapshot ()))
      end
    with Service.Validation_failed msg ->
      Printf.eprintf "hmn_cli online: %s\n" msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "online"
       ~doc:
         "Drive a seeded stream of tenant arrivals and departures through the \
          shared cluster with admission control and periodic \
          defragmentation; $(b,--report) compares admission policies across \
          offered-load levels.")
    Term.(
      const run $ session_t $ policy_t $ no_defrag_t $ defrag_interval_t
      $ defrag_trigger_t $ defrag_moves_t $ validate_t $ smoke_t $ report_t
      $ loads_t $ report_csv_t
      $ events_t $ timeline_t $ trace_out_t $ prom_t $ defrag_on_reject_t
      $ export_on_admit_t)

(* ---- slo ---- *)

let slo_cmd =
  let module Service = Hmn_online.Service in
  let module Report = Hmn_experiments.Online_report in
  let policy_t =
    Arg.(
      value & opt_all string []
      & info [ "policy" ] ~docv:"NAME"
          ~doc:"Admission policy (repeatable); default HMN,R,HS.")
  in
  let unit_t =
    Arg.(
      value
      & opt (Arg.enum [ ("wall", Report.Wall_ms); ("work", Report.Work_units) ])
          Report.Wall_ms
      & info [ "unit" ] ~docv:"wall|work"
          ~doc:
            "Latency source: $(b,wall) is wall-clock milliseconds (real \
             benchmarking, machine-dependent); $(b,work) is the \
             deterministic admission work-unit proxy (byte-stable \
             percentiles for a fixed seed).")
  in
  let smoke_t =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Fixed-seed CI mode: the pinned 3x4 torus and workload of \
             $(b,online --smoke), work-unit latency. Output is \
             byte-identical across runs and machines.")
  in
  let run session policies loads unit csv smoke =
    let (cluster, config), latency =
      if smoke then (smoke_session (), Report.Work_units) else (session, unit)
    in
    let policies = if policies = [] then Report.default_policies else policies in
    try
      match Report.run ~policies ~loads ~latency ~cluster ~config () with
      | Error msg ->
        Printf.eprintf "hmn_cli slo: %s\n" msg;
        exit 2
      | Ok results ->
        print_string (Report.slo_table results);
        (match csv with
        | None -> ()
        | Some file ->
          let oc = open_out file in
          output_string oc (Report.slo_csv results);
          close_out oc;
          Printf.printf "wrote %s\n" file)
    with Service.Validation_failed msg ->
      Printf.eprintf "hmn_cli slo: %s\n" msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Admission-latency percentile tables (p50/p90/p99/p999/max) per \
          admission policy and offered-load level, from the flight \
          recorder's quantile histograms; $(b,--unit work) reports the \
          deterministic work-unit proxy instead of wall-clock \
          milliseconds.")
    Term.(
      const run $ session_t $ policy_t $ loads_t $ unit_t $ report_csv_t
      $ smoke_t)

(* ---- scale ---- *)

let scale_cmd =
  let module Scale = Hmn_experiments.Scale in
  let hosts_t =
    Arg.(
      value & opt int 400
      & info [ "hosts" ] ~docv:"INT"
          ~doc:
            "Target host count; the fabric geometry may round it up \
             (fat-tree pod arithmetic, whole racks).")
  in
  let shape_t =
    Arg.(
      value
      & opt (Arg.enum [ ("clos", Scale.Clos); ("fat-tree", Scale.Fat_tree) ]) Scale.Clos
      & info [ "shape" ] ~docv:"clos|fat-tree" ~doc:"Physical fabric family.")
  in
  let ratio_t =
    Arg.(
      value & opt positive_int 25
      & info [ "ratio" ] ~docv:"INT" ~doc:"Guests per host.")
  in
  let validate_t =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Re-check the mapping with the independent validator (also \
             forced by $(b,HMN_VALIDATE)).")
  in
  let routing_counters_t =
    Arg.(
      value & flag
      & info [ "routing-counters" ]
          ~doc:
            "Append one deterministic line of Networking search-effort \
             counters (labels expanded/generated, fast-path hits) to the \
             summary; CI pins it to catch engine drift.")
  in
  let run seed hosts shape ratio jobs validate routing_counters =
    let validate = validate || Sys.getenv_opt "HMN_VALIDATE" <> None in
    let r = Scale.run ~jobs ~ratio ~seed ~validate ~shape ~hosts () in
    print_string (Scale.render_summary r);
    if routing_counters then print_string (Scale.render_routing_counters r);
    (* Timings are real wall clock — stderr only, so stdout stays
       byte-diffable across runs and jobs counts. *)
    prerr_string (Scale.render_timings r);
    if Result.is_error r.Scale.outcome.Hmn_core.Mapper.result then exit 1;
    if r.Scale.valid = Some false then exit 1
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Map one large deterministic instance (40 to 4000 hosts) with the \
          scale pipeline: two-level rack-sharded Hosting, capped Migration, \
          CSR + landmark-table Networking.")
    Term.(
      const run $ seed_t $ hosts_t $ shape_t $ ratio_t $ jobs_t $ validate_t
      $ routing_counters_t)

(* ---- gap ---- *)

let gap_cmd =
  let module Gap = Hmn_experiments.Gap_report in
  let smoke_t =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Fixed-seed CI configuration: the full 20-instance grid with the \
             default node budget; stdout is byte-deterministic and pinned by \
             $(b,dune runtest).")
  in
  let per_class_t =
    Arg.(
      value & opt int Gap.default_per_class
      & info [ "per-class" ] ~docv:"INT"
          ~doc:"Seeded instances per class (4 classes).")
  in
  let budget_t =
    Arg.(
      value & opt (some int) None
      & info [ "node-budget" ] ~docv:"INT"
          ~doc:
            "Branch-and-bound node budget per instance; on exhaustion the \
             instance is reported unproven, never wrong.")
  in
  let csv_t =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"PATH"
          ~doc:"Also write one (instance, mapper) line per row as CSV.")
  in
  let run seed smoke per_class node_budget csv =
    let seed = if smoke then Gap.default_seed else seed in
    let runs = Gap.run ?node_budget ~seed ~per_class () in
    print_string (Gap.render_table runs);
    (match csv with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Gap.render_csv runs);
      close_out oc);
    (* Wall times and node counts go to stderr so stdout stays pinnable. *)
    prerr_string (Gap.render_timings runs);
    if List.exists (fun r -> not r.Gap.proven) runs then exit 1
  in
  Cmd.v
    (Cmd.info "gap"
       ~doc:
         "Measure every paper heuristic's optimality gap against the exact \
          branch-and-bound baseline on a seeded grid of small instances (4-10 \
          hosts, 8-30 guests), each solved to proven optimality.")
    Term.(const run $ seed_t $ smoke_t $ per_class_t $ budget_t $ csv_t)

(* ---- export ---- *)

let export_cmd =
  let module Compile = Hmn_artifact.Compile in
  let module Decompile = Hmn_artifact.Decompile in
  let module Spec = Hmn_artifact.Spec in
  let module Check = Hmn_validate.Artifact_check in
  let module Scale = Hmn_experiments.Scale in
  let heuristic_t =
    Arg.(
      value & opt string "HMN"
      & info [ "heuristic" ] ~docv:"NAME"
          ~doc:"Heuristic for the generated instance (see $(b,list)).")
  in
  let bundle_t =
    Arg.(
      value & opt (some string) None
      & info [ "bundle" ] ~docv:"FILE"
          ~doc:"Export a saved problem+mapping bundle (see $(b,map --save)).")
  in
  let scale_hosts_t =
    Arg.(
      value & opt (some int) None
      & info [ "scale-hosts" ] ~docv:"INT"
          ~doc:
            "Map a scale-pipeline instance of this many hosts (see \
             $(b,scale)) and export it.")
  in
  let shape_t =
    Arg.(
      value
      & opt (Arg.enum [ ("clos", Scale.Clos); ("fat-tree", Scale.Fat_tree) ]) Scale.Clos
      & info [ "shape" ] ~docv:"clos|fat-tree"
          ~doc:"Fabric family for $(b,--scale-hosts).")
  in
  let ratio_t =
    Arg.(
      value & opt positive_int 25
      & info [ "ratio" ] ~docv:"INT"
          ~doc:"Guests per host for $(b,--scale-hosts).")
  in
  let format_t =
    Arg.(
      value
      & opt (Arg.enum [ ("shell", Spec.Shell); ("json", Spec.Json) ]) Spec.Shell
      & info [ "format" ] ~docv:"shell|json"
          ~doc:"Artifact grammar: POSIX-shell command plans or JSON documents.")
  in
  let out_dir_t =
    Arg.(
      value & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:
            "Write $(b,manifest.json) plus the VM and network artifacts under \
             DIR (created when missing).")
  in
  let stdout_t =
    Arg.(
      value & flag
      & info [ "stdout" ]
          ~doc:
            "Dump every artifact file to stdout under `=== name ===' headers \
             — byte-deterministic, which is what CI pins.")
  in
  let check_t =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Round-trip dry run: re-parse the emitted text with the \
             independent decompiler and cross-validate it against the \
             mapping; any violation exits non-zero.")
  in
  let run seed cluster_kind guests density workload heuristic bundle scale_hosts
      shape ratio jobs format out_dir to_stdout check =
    if bundle <> None && scale_hosts <> None then begin
      prerr_endline
        "hmn_cli export: --bundle and --scale-hosts are mutually exclusive";
      exit 2
    end;
    let mapping =
      match (bundle, scale_hosts) with
      | Some path, _ -> (
        match Hmn_io.Codec.load_bundle ~path with
        | Ok m -> m
        | Error msg ->
          Printf.eprintf "hmn_cli export: %s\n" msg;
          exit 1)
      | None, Some hosts -> (
        let r = Scale.run ~jobs ~ratio ~seed ~shape ~hosts () in
        (* wall clock to stderr; stdout stays byte-diffable *)
        prerr_string (Scale.render_timings r);
        match r.Scale.outcome.Hmn_core.Mapper.result with
        | Ok m -> m
        | Error _ ->
          Format.eprintf "hmn_cli export: mapping failed: %a@."
            Hmn_core.Mapper.pp_outcome r.Scale.outcome;
          exit 1)
      | None, None -> (
        match Hmn_core.Registry.find heuristic with
        | None ->
          Printf.eprintf "unknown heuristic %s; try `hmn_cli list'\n" heuristic;
          exit 2
        | Some mapper -> (
          let problem =
            build_problem ~seed ~cluster_kind ~guests ~density ~workload
          in
          let outcome =
            mapper.Hmn_core.Mapper.run ~rng:(Hmn_rng.Rng.create (seed + 1))
              problem
          in
          match outcome.Hmn_core.Mapper.result with
          | Ok m -> m
          | Error _ ->
            Format.eprintf "hmn_cli export: mapping failed: %a@."
              Hmn_core.Mapper.pp_outcome outcome;
            exit 1))
    in
    let b = Compile.of_mapping ~format mapping in
    (match out_dir with
    | None -> ()
    | Some dir ->
      Compile.write ~dir b;
      Printf.printf "wrote %d files under %s\n" (List.length b.Compile.files) dir);
    if to_stdout then
      List.iter
        (fun (name, content) ->
          Printf.printf "=== %s ===\n" name;
          print_string content;
          if content = "" || content.[String.length content - 1] <> '\n' then
            print_newline ())
        b.Compile.files;
    Printf.printf "export: format=%s files=%d bytes=%d\n"
      (Spec.format_name format)
      (List.length b.Compile.files)
      (Compile.bytes b);
    if check then begin
      match Decompile.run ~files:b.Compile.files with
      | Error msg ->
        Printf.printf "check: decompile FAILED: %s\n" msg;
        exit 1
      | Ok d ->
        let report = Check.check ~mapping d in
        Format.printf "check: %a@." Check.pp_report report;
        if not (Check.ok report) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Compile a mapping into deployable testbed artifacts — per-host VM \
          launch plan, OVS-style bridge plan and tc/netem shaping profile, \
          and a manifest tying them to the problem instance — and \
          optionally ($(b,--check)) prove the emitted text faithful by \
          decompiling it and cross-validating against the mapping.")
    Term.(
      const run $ seed_t $ cluster_t $ guests_t $ density_t $ workload_t
      $ heuristic_t $ bundle_t $ scale_hosts_t $ shape_t $ ratio_t $ jobs_t
      $ format_t $ out_dir_t $ stdout_t $ check_t)

(* ---- dot ---- *)

let dot_cmd =
  let what_t =
    Arg.(
      value & opt (Arg.enum [ ("cluster", `Cluster); ("venv", `Venv) ]) `Cluster
      & info [ "what" ] ~docv:"cluster|venv" ~doc:"Which graph to emit.")
  in
  let run seed cluster_kind guests density workload what =
    let problem = build_problem ~seed ~cluster_kind ~guests ~density ~workload in
    match what with
    | `Cluster ->
      let cluster = problem.Hmn_mapping.Problem.cluster in
      print_string
        (Hmn_graph.Dot.to_dot
           ~node_name:(fun i ->
             (Hmn_testbed.Cluster.node cluster i).Hmn_testbed.Node.name)
           ~edge_attr:(fun _ link ->
             Format.asprintf "label=\"%a\"" Hmn_testbed.Link.pp link)
           (Hmn_testbed.Cluster.graph cluster))
    | `Venv ->
      let venv = problem.Hmn_mapping.Problem.venv in
      print_string
        (Hmn_graph.Dot.to_dot
           ~node_name:(fun i ->
             (Hmn_vnet.Virtual_env.guest venv i).Hmn_vnet.Guest.name)
           (Hmn_vnet.Virtual_env.graph venv))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit the generated physical or virtual topology as DOT.")
    Term.(
      const run $ seed_t $ cluster_t $ guests_t $ density_t $ workload_t $ what_t)

let () =
  let doc = "virtual machine and link mapping for emulation testbeds (HMN)" in
  (* Uniform usage-error exit: cmdliner answers a `Term error (unknown
     flag, missing positional) with ~term_err but a `Parse error (bad
     converter value) always with Exit.cli_error = 124. Fold both onto
     2, matching the hand-rolled argument checks, so every subcommand's
     usage error prints to stderr and exits 2. *)
  let code =
    Cmd.eval ~term_err:2
      (Cmd.group (Cmd.info "hmn_cli" ~doc)
         [
           list_cmd; map_cmd; profile_cmd; validate_cmd; fuzz_cmd;
           experiments_cmd; figure1_cmd; ablation_cmd; online_cmd; slo_cmd;
           scale_cmd;
           gap_cmd; export_cmd; dot_cmd;
         ])
  in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
