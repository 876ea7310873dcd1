(* The paper's second use case: testing a P2P protocol ("low-level
   workload") — many thin virtual machines, 20 guests per host, on the
   switched cluster. Shows the full pipeline: generate, map with HMN,
   validate, then run the emulated BSP experiment (Exec_sim) and report
   per-stage detail.

   Run with: dune exec examples/p2p_overlay.exe *)

let () =
  let rng = Hmn_rng.Rng.create 2009 in
  let cluster =
    Hmn_experiments.Scenario.build_cluster Hmn_experiments.Scenario.Switched ~rng
  in
  let venv =
    Hmn_vnet.Venv_gen.generate
      ~scale_to_fit:(cluster, Hmn_experiments.Setup.fit_fraction)
      ~profile:Hmn_vnet.Workload.low_level ~n:800 ~density:0.01 ~rng ()
  in
  let problem = Hmn_mapping.Problem.make ~cluster ~venv in
  Format.printf "P2P overlay emulation (%d peers on %d hosts):@.  %a@.@."
    (Hmn_vnet.Virtual_env.n_guests venv)
    (Hmn_testbed.Cluster.n_hosts cluster)
    Hmn_mapping.Problem.pp_summary problem;

  let outcome, report = Hmn_core.Hmn.run_detailed problem in
  match outcome.Hmn_core.Mapper.result with
  | Error f -> Format.printf "mapping failed in %s: %s@." f.stage f.reason
  | Ok mapping ->
    Format.printf "HMN stages: hosting %.4fs, migration %.4fs, networking %.4fs@."
      report.Hmn_core.Hmn.hosting_s report.Hmn_core.Hmn.migration_s
      report.Hmn_core.Hmn.networking_s;
    (match report.Hmn_core.Hmn.migration_stats with
    | Some m ->
      Format.printf "migration: %d moves, LBF %.1f -> %.1f@." m.Hmn_core.Migration.moves
        m.Hmn_core.Migration.lbf_before m.Hmn_core.Migration.lbf_after
    | None -> ());
    (match report.Hmn_core.Hmn.networking_stats with
    | Some n ->
      Format.printf
        "networking: %d links routed, %d intra-host, %d A*Prune expansions@."
        n.Hmn_core.Networking.routed n.Hmn_core.Networking.intra_host
        n.Hmn_core.Networking.expanded
    | None -> ());
    assert (Hmn_validate.Validator.is_valid mapping);
    Format.printf "%s@." (Hmn_mapping.Report.summary mapping);
    let sim = Hmn_emulation.Exec_sim.run mapping in
    Format.printf
      "emulated BSP experiment: %.3f s makespan, %d events, max host slowdown \
       %.2fx, %d intra-host / %d inter-host messages@."
      sim.Hmn_emulation.Exec_sim.makespan_s sim.Hmn_emulation.Exec_sim.events
      sim.Hmn_emulation.Exec_sim.max_host_slowdown
      sim.Hmn_emulation.Exec_sim.intra_host_messages
      sim.Hmn_emulation.Exec_sim.inter_host_messages
