(* Day-two operations on a deployed emulation: save the environment to
   disk, reload it, move a guest off the busiest host by hand (its
   virtual links re-route), let the rebalancer tidy up after the move,
   and verify constraint validity at every step — the
   "fully-automated emulator" workflow the paper's project targets.

   Run with: dune exec examples/live_operations.exe *)

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

  (* A tester moves one guest off the busiest occupied host (least
     residual CPU) to the idlest other host whose residual memory and
     storage fit it, trying hosts in that order until its links
     re-route. *)
  let live = Hmn_online.Incremental.create mapping in
  let placement = mapping.Hmn_mapping.Mapping.placement in
  let hosts = Array.to_list (Cluster.host_ids cluster) in
  let by_residual_cpu =
    List.sort
      (fun a b ->
        Float.compare
          (Hmn_mapping.Placement.residual_cpu placement ~host:a)
          (Hmn_mapping.Placement.residual_cpu placement ~host:b))
      hosts
  in
  let busiest =
    List.find
      (fun host -> Hmn_mapping.Placement.n_guests_on placement ~host > 0)
      by_residual_cpu
  in
  let guest = List.hd (Hmn_mapping.Placement.guests_on placement ~host:busiest) in
  let targets =
    List.filter
      (fun host -> host <> busiest && Hmn_mapping.Placement.fits placement ~guest ~host)
      (List.rev by_residual_cpu)
  in
  let before = Hmn_mapping.Mapping.objective mapping in
  (match
     List.find_opt
       (fun host -> Result.is_ok (Hmn_online.Incremental.move_guest live ~guest ~host))
       targets
   with
  | Some host ->
    Format.printf "move guest %d: host %d -> host %d, LBF %.2f -> %.2f@." guest
      busiest host before
      (Hmn_mapping.Mapping.objective mapping)
  | None ->
    Format.printf "  [!!] no fitting host could take guest %d@." guest;
    exit 1);
  check mapping "after the move";

  (* Rebalance the live mapping in place. *)
  let before = Hmn_mapping.Mapping.objective mapping in
  let moves = Hmn_online.Incremental.rebalance live in
  Format.printf "rebalance: %d moves, LBF %.2f -> %.2f@." moves before
    (Hmn_mapping.Mapping.objective mapping);
  check mapping "after rebalance";

  (* And the emulated experiment still runs. *)
  let sim = Hmn_emulation.Exec_sim.run mapping in
  Format.printf "emulated experiment on the updated mapping: %.3f s@."
    sim.Hmn_emulation.Exec_sim.makespan_s
