module Graph = Hmn_graph.Graph
module Cluster = Hmn_testbed.Cluster
module Virtual_env = Hmn_vnet.Virtual_env
module Placement = Hmn_mapping.Placement
module Problem = Hmn_mapping.Problem
module Objective = Hmn_mapping.Objective
module Resources = Hmn_testbed.Resources

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

(* The exact cut. Moving a guest of [v] MIPS from the origin (residual
   CPU [a]) to a target (residual [b]) keeps the residual sum, hence
   the mean, so the sum of squared deviations changes by exactly
   2v(a - b + v), and the variance by that over n. Targets are scanned
   by non-increasing [b] and demands are non-negative, so the change
   never shrinks along the scan: once it is positive by more than the
   rounding error of [Objective]'s stddev, neither this target nor any
   later one can pass [lbf' < current - improvement_eps], and the scan
   ends.

   [cut_slack] bounds that error, with u = epsilon_float / 2, every
   residual and [v] at most [s] in magnitude, and n u below 1/200.
   The two-pass stddev (Kahan mean, then a plain sum of n squared
   deviations) returns a variance within a relative (n + 4)u of the
   exact variance of its inputs, plus the squared error of the mean,
   at most (4us)^2. The move's own roundings of a + v and b - v lower
   the sum of squares by at most 9us^2, and evaluating 2v(a - b + v)
   errs by at most 10us^2. As sqrt and rounding are monotone, the
   computed lbf' is then at least [current] whenever the computed
   2v(a - b + v) exceeds 2.05 n(n + 4)u current^2 + 20us^2; the slack
   is over 1.5 times that. It is tiny: at 4000 hosts and an LBF of
   1000 MIPS it is under 0.01 MIPS^2, so for a 100-MIPS guest the cut
   needs a - b + v above about 4e-5 MIPS. Every target that is not
   cut still gets the exact check, so moves and LBFs are unchanged. *)
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

let run ?max_moves placement =
  let problem = Placement.problem placement in
  let hosts = Cluster.host_ids problem.Problem.cluster in
  let n_guests = Virtual_env.n_guests problem.Problem.venv in
  let max_moves = Option.value max_moves ~default:(16 * n_guests) in
  let lbf_before = Objective.load_balance_factor placement in
  let move ~guest ~host = Result.is_ok (Placement.migrate placement ~guest ~host) in
  let moves = ref 0 and tried = ref 0 in
  let rec loop () =
    if !moves < max_moves then begin
      let moved, evaluated = round placement ~hosts ~move in
      tried := !tried + evaluated;
      if moved then begin
        incr moves;
        loop ()
      end
    end
  in
  loop ();
  let module Metrics = Hmn_obs.Metrics in
  if Metrics.enabled () then begin
    Metrics.Counter.add (Metrics.counter "migration.moves_tried") !tried;
    Metrics.Counter.add (Metrics.counter "migration.moves_accepted") !moves
  end;
  { moves = !moves; lbf_before; lbf_after = Objective.load_balance_factor placement }
