module Running = Hmn_stats.Running

type point = {
  n_guests : int;
  n_vlinks : int;
  inter_host_links : int;
  mean_s : float;
  stddev_s : float;
  reps : int;
}

let default_sweep =
  [
    (100, 0.02, Scenario.High_level);
    (200, 0.02, Scenario.High_level);
    (400, 0.02, Scenario.High_level);
    (800, 0.01, Scenario.Low_level);
    (1200, 0.01, Scenario.Low_level);
    (1600, 0.01, Scenario.Low_level);
    (2000, 0.01, Scenario.Low_level);
  ]

let run ?(sweep = default_sweep) ?reps ?(seed = 42) () =
  let reps = match reps with Some r -> r | None -> Runner.env_int "HMN_REPS" 3 in
  List.filter_map
    (fun (n, density, workload) ->
      let profile = Scenario.workload_profile workload in
      let times = Running.create () in
      let vlinks = ref 0 and inter = ref 0 in
      for rep = 0 to reps - 1 do
        let rng = Hmn_rng.Rng.create (seed + (1000 * n) + rep) in
        let cluster = Scenario.build_cluster Scenario.Torus ~rng in
        let venv =
          Hmn_vnet.Venv_gen.generate
            ~scale_to_fit:(cluster, Setup.fit_fraction)
            ~profile ~n ~density ~rng ()
        in
        let problem = Hmn_mapping.Problem.make ~cluster ~venv in
        vlinks := Hmn_vnet.Virtual_env.n_vlinks venv;
        let outcome, report = Hmn_core.Hmn.run_detailed problem in
        match outcome.Hmn_core.Mapper.result with
        | Ok _ ->
          Running.add times outcome.Hmn_core.Mapper.elapsed_s;
          (match report.Hmn_core.Hmn.networking_stats with
          | Some s -> inter := s.Hmn_core.Networking.routed
          | None -> ())
        | Error _ -> ()
      done;
      if Running.count times = 0 then None
      else
        Some
          {
            n_guests = n;
            n_vlinks = !vlinks;
            inter_host_links = !inter;
            mean_s = Running.mean times;
            stddev_s = Running.stddev times;
            reps = Running.count times;
          })
    sweep

let render points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Figure 1. HMN mapping time vs number of virtual links (torus cluster).\n";
  let max_mean =
    List.fold_left (fun acc p -> Float.max acc p.mean_s) 1e-9 points
  in
  List.iter
    (fun p ->
      let bar_len = int_of_float (40. *. p.mean_s /. max_mean) in
      Buffer.add_string buf
        (Printf.sprintf "%6d links (%4d guests, %5d routed): %8.3f s +- %6.3f  %s\n"
           p.n_vlinks p.n_guests p.inter_host_links p.mean_s p.stddev_s
           (String.make (max bar_len 1) '#')))
    points;
  Buffer.contents buf
