(* The Migration stage as it was before the shared round and its exact
   cut, retained verbatim (minus metrics) as the oracle for the
   equivalence property in test_core.ml: the same moves, in the same
   order, and a bit-identical final LBF. Every round scans every
   target and evaluates the LBF of each from scratch. Do not
   "improve" this file — its value is that it is the old stage. *)

module Graph = Hmn_graph.Graph
module Cluster = Hmn_testbed.Cluster
module Virtual_env = Hmn_vnet.Virtual_env
module Placement = Hmn_mapping.Placement
module Problem = Hmn_mapping.Problem
module Objective = Hmn_mapping.Objective

type stats = {
  moves : int;
  lbf_before : float;
  lbf_after : float;
}

(* Strict-improvement threshold: protects termination against
   floating-point noise in the stddev computation. *)
let improvement_eps = 1e-9

let colocated_bandwidth placement ~guest =
  let problem = Placement.problem placement in
  let venv = problem.Problem.venv in
  match Placement.host_of placement ~guest with
  | None -> 0.
  | Some host ->
    Graph.fold_adj (Virtual_env.graph venv) guest ~init:0.
      ~f:(fun acc ~neighbor ~eid ->
        if Placement.host_of placement ~guest:neighbor = Some host then
          acc +. (Virtual_env.vlink venv eid).Hmn_vnet.Vlink.bandwidth_mbps
        else acc)

let most_loaded_host_with_guests placement hosts =
  let best = ref None in
  Array.iter
    (fun h ->
      if Placement.n_guests_on placement ~host:h > 0 then begin
        let cpu = Placement.residual_cpu placement ~host:h in
        match !best with
        | Some (_, best_cpu) when best_cpu <= cpu -> ()
        | _ -> best := Some (h, cpu)
      end)
    hosts;
  Option.map fst !best

let pick_victim placement ~host =
  match Placement.guests_on placement ~host with
  | [] -> None
  | guests -> Some (Hmn_prelude.List_ext.min_by (fun g -> colocated_bandwidth placement ~guest:g) guests)

let run ?max_moves placement =
  let problem = Placement.problem placement in
  let cluster = problem.Problem.cluster in
  let hosts = Cluster.host_ids cluster in
  let n_guests = Virtual_env.n_guests problem.Problem.venv in
  let max_moves = Option.value max_moves ~default:(16 * n_guests) in
  let lbf_before = Objective.load_balance_factor placement in
  let moves = ref 0 and tried = ref 0 in
  let try_round () =
    let current = Objective.load_balance_factor placement in
    match most_loaded_host_with_guests placement hosts with
    | None -> false
    | Some origin -> (
      match pick_victim placement ~host:origin with
      | None -> false
      | Some guest ->
        (* Targets from least loaded (largest residual CPU) upward. *)
        let targets =
          Array.of_list
            (List.filter (fun h -> h <> origin) (Array.to_list hosts))
        in
        Hmn_prelude.Array_ext.sort_by_desc
          (fun h -> Placement.residual_cpu placement ~host:h)
          targets;
        let moved = ref false and i = ref 0 in
        while (not !moved) && !i < Array.length targets do
          let target = targets.(!i) in
          incr i;
          incr tried;
          match Objective.load_balance_after_migration placement ~guest ~host:target with
          | Some lbf' when lbf' < current -. improvement_eps -> (
            match Placement.migrate placement ~guest ~host:target with
            | Ok () ->
              moved := true;
              incr moves
            | Error _ -> ())
          | Some _ | None -> ()
        done;
        !moved)
  in
  let rec loop () = if !moves < max_moves && try_round () then loop () in
  loop ();
  { moves = !moves; lbf_before; lbf_after = Objective.load_balance_factor placement }

(* The shared round with its exact cut as it was before the stage kept
   its host order and residuals across rounds: every round finds the
   origin by a scan of all hosts, copies every residual, sorts all host
   indices and evaluates each target with a fresh
   [Objective.load_balance_after_migration]. Retained verbatim as the
   oracle for the rollback property in test_core.ml, where [move] can
   fail and roll back. Do not "improve" it either. *)

module Resources = Hmn_testbed.Resources

let cut_slack ~n ~current ~s =
  let n = float_of_int n in
  epsilon_float *. ((2. *. n *. (n +. 4.) *. current *. current) +. (16. *. s *. s))

let round placement ~hosts ~move =
  match most_loaded_host_with_guests placement hosts with
  | None -> (false, 0)
  | Some origin -> (
    match pick_victim placement ~host:origin with
    | None -> (false, 0)
    | Some guest ->
      let current = Objective.load_balance_factor placement in
      let venv = (Placement.problem placement).Problem.venv in
      let v = (Virtual_env.demand venv guest).Resources.mips in
      let residual =
        Array.map (fun h -> Placement.residual_cpu placement ~host:h) hosts
      in
      let a = Placement.residual_cpu placement ~host:origin in
      let s = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0. residual +. v in
      (* Targets from least loaded (largest residual CPU) upward: one
         stable sort of host indices on the precomputed keys. *)
      let targets =
        Array.of_list
          (List.filter (fun i -> hosts.(i) <> origin)
             (List.init (Array.length hosts) Fun.id))
      in
      Array.stable_sort (fun i j -> Float.compare residual.(j) residual.(i)) targets;
      (* A [move] that fails and rolls back leaves the origin's and
         the target's residuals up to two roundings each (4us in all)
         off the keys; each failure widens the slack by the 16us^2
         that can shift the sum of squares. *)
      let rec scan k evaluated slack =
        if k = Array.length targets then (false, evaluated)
        else
          let i = targets.(k) in
          if 2. *. v *. (a -. residual.(i) +. v) > slack then (false, evaluated)
          else begin
            let host = hosts.(i) in
            match Objective.load_balance_after_migration placement ~guest ~host with
            | Some lbf' when lbf' < current -. improvement_eps ->
              if move ~guest ~host then (true, evaluated + 1)
              else
                scan (k + 1) (evaluated + 1) (slack +. (8. *. epsilon_float *. s *. s))
            | Some _ | None -> scan (k + 1) (evaluated + 1) slack
          end
      in
      scan 0 0 (cut_slack ~n:(Array.length hosts) ~current ~s))

(* The loop [Migration.run] and [Incremental.rebalance] drove [round]
   with: rounds while one made a move, up to [max_moves] moves.
   Returns the moves made and the exact LBF evaluations. *)
let loop placement ~max_moves ~move =
  let hosts = Cluster.host_ids (Placement.problem placement).Problem.cluster in
  let moves = ref 0 and tried = ref 0 in
  let rec go () =
    if !moves < max_moves then begin
      let moved, evaluated = round placement ~hosts ~move in
      tried := !tried + evaluated;
      if moved then begin
        incr moves;
        go ()
      end
    end
  in
  go ();
  (!moves, !tried)
