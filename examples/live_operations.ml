(* Day-two operations on a deployed emulation: save the environment to
   disk, drain a host for maintenance (all its guests migrate and their
   virtual links re-route), rebalance the cluster afterwards, and
   verify constraint validity at every step — the "fully-automated
   emulator" workflow the paper's project targets.

   Run with: dune exec examples/live_operations.exe *)

module Placement = Hmn_mapping.Placement
module Cluster = Hmn_testbed.Cluster

let check mapping label =
  if Hmn_validate.Validator.is_valid mapping then
    Format.printf "  [ok] %s: mapping valid (LBF %.1f)@." label
      (Hmn_mapping.Mapping.objective mapping)
  else begin
    Format.printf "  [!!] %s: mapping invalid@." label;
    exit 1
  end

let () =
  let rng = Hmn_rng.Rng.create 77 in
  let cluster =
    Hmn_experiments.Scenario.build_cluster Hmn_experiments.Scenario.Torus ~rng
  in
  let venv =
    Hmn_vnet.Venv_gen.generate
      ~scale_to_fit:(cluster, Hmn_experiments.Setup.fit_fraction)
      ~profile:Hmn_vnet.Workload.high_level ~n:200 ~density:0.02 ~rng ()
  in
  let problem = Hmn_mapping.Problem.make ~cluster ~venv in
  let mapping =
    match (Hmn_core.Hmn.run problem).Hmn_core.Mapper.result with
    | Ok m -> m
    | Error f -> failwith f.Hmn_core.Mapper.reason
  in
  Format.printf "deployed %d guests over %d hosts@."
    (Hmn_vnet.Virtual_env.n_guests venv)
    (Cluster.n_hosts cluster);
  check mapping "initial deployment";

  (* Persist the environment so the experiment is reproducible. *)
  let path = Filename.temp_file "hmn_live" ".json" in
  Hmn_io.Codec.save_bundle ~path mapping;
  Format.printf "  saved bundle to %s (%d bytes)@." path
    (let stats = open_in path in
     let len = in_channel_length stats in
     close_in stats;
     len);
  (match Hmn_io.Codec.load_bundle ~path with
  | Ok reloaded -> check reloaded "reloaded from disk"
  | Error e -> failwith e);
  Sys.remove path;

  (* Keep a snapshot (via the codec) so the day's changes can be
     summarized with a structural diff at the end. *)
  let snapshot =
    match Hmn_io.Codec.mapping_of_json
            ~problem (Hmn_io.Codec.mapping_to_json mapping)
    with
    | Ok m -> m
    | Error e -> failwith e
  in

  (* Host maintenance: drain the busiest host. *)
  let live = Hmn_online.Incremental.create mapping in
  let placement = mapping.Hmn_mapping.Mapping.placement in
  let victim =
    Hmn_prelude.Array_ext.max_by
      (fun h -> float_of_int (Placement.n_guests_on placement ~host:h))
      (Cluster.host_ids cluster)
  in
  Format.printf "draining host %s (%d guests)...@."
    (Cluster.node cluster victim).Hmn_testbed.Node.name
    (Placement.n_guests_on placement ~host:victim);
  (match Hmn_online.Incremental.evacuate_host live ~host:victim with
  | Ok moved -> Format.printf "  moved %d guests (links re-routed)@." moved
  | Error e -> failwith e);
  assert (Placement.n_guests_on placement ~host:victim = 0);
  check mapping "after evacuation";

  (* The drain skewed the load; rebalance. *)
  let before = Hmn_mapping.Mapping.objective mapping in
  let moves = Hmn_online.Incremental.rebalance live in
  Format.printf "rebalance: %d moves, LBF %.1f -> %.1f@." moves before
    (Hmn_mapping.Mapping.objective mapping);
  check mapping "after rebalance";

  (* What changed today, versus the morning snapshot? *)
  let d = Hmn_mapping.Diff.diff snapshot mapping in
  Format.printf "change log: %s@." (Hmn_mapping.Diff.summary d);

  (* And the emulated experiment still runs. *)
  let sim = Hmn_emulation.Exec_sim.run mapping in
  Format.printf "emulated experiment on the updated mapping: %.3f s@."
    sim.Hmn_emulation.Exec_sim.makespan_s
