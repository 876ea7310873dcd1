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
        match Placement.host_of placement ~guest:neighbor with
        | Some h when h = host ->
          acc +. (Virtual_env.vlink venv eid).Hmn_vnet.Vlink.bandwidth_mbps
        | Some _ | None -> acc)

(* The guest with the least co-located bandwidth; ties to the lowest
   id, as [guests_on] is ascending. *)
let pick_victim placement ~host =
  let rec least best best_bw = function
    | [] -> best
    | g :: rest ->
      let bw = colocated_bandwidth placement ~guest:g in
      if bw < best_bw then least g bw rest else least best best_bw rest
  in
  match Placement.guests_on placement ~host with
  | [] -> None
  | g :: rest -> Some (least g (colocated_bandwidth placement ~guest:g) rest)

(* What the stage keeps across rounds. [res] is the residual CPU of
   every host index, bitwise the placement's. [order] holds the host
   indices by [key] descending, ties by index: the order a fresh stable
   sort of the residuals gives. [key] is the residual a host had when
   it was last sorted in, so between rounds [key] = [res]; a round
   re-sorts only the hosts whose residual it changed. [current] is the
   placement's LBF. *)
type state = {
  placement : Placement.t;
  hosts : int array;
  res : float array;
  key : float array;
  order : int array;
  mutable current : float;
}

let create placement =
  let hosts = Cluster.host_ids (Placement.problem placement).Problem.cluster in
  let res = Array.map (fun h -> Placement.residual_cpu placement ~host:h) hosts in
  let order = Array.init (Array.length hosts) Fun.id in
  Array.stable_sort (fun i j -> Float.compare res.(j) res.(i)) order;
  { placement; hosts; res; key = Array.copy res; order; current = Objective.stddev res }

let before st i j =
  match Float.compare st.key.(j) st.key.(i) with 0 -> Int.compare i j | c -> c

(* Re-reads host index [i]'s residual and moves it to its place in
   [order]; [key.(i)] still locates it until then. *)
let resync st i =
  let rec find lo hi =
    let mid = (lo + hi) / 2 in
    let c = before st st.order.(mid) i in
    if c = 0 then mid else if c < 0 then find (mid + 1) hi else find lo mid
  in
  let p = find 0 (Array.length st.order) in
  st.res.(i) <- Placement.residual_cpu st.placement ~host:st.hosts.(i);
  st.key.(i) <- st.res.(i);
  ignore (Hmn_prelude.Array_ext.resift (before st) st.order p)

(* The position in [order] of the most loaded host with guests: the
   last host with guests, then back through its ties to the lowest
   index, as a scan of the hosts by index keeps the first minimum. *)
let origin st =
  let has_guests p = Placement.n_guests_on st.placement ~host:st.hosts.(st.order.(p)) > 0 in
  let rec last p = if p < 0 || has_guests p then p else last (p - 1) in
  match last (Array.length st.order - 1) with
  | -1 -> None
  | p ->
    let r = st.key.(st.order.(p)) in
    let rec lowest q best =
      if q < 0 || Float.compare st.key.(st.order.(q)) r <> 0 then best
      else lowest (q - 1) (if has_guests q then q else best)
    in
    Some (lowest (p - 1) p)

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

(* One round: origin, victim, then targets from least loaded (largest
   residual CPU) upward. The exact check writes the move into [res] in
   place, takes the stddev and restores it: the same a + v and b - v,
   in the same host order, as [Objective.load_balance_after_migration]
   computes, so the same bits. Returns the host indices whose residual
   the round changed (the origin, the accepted target, and every target
   whose [move] failed and rolled back) when a move was made, and the
   number of exact evaluations. *)
let round st ~move =
  match origin st with
  | None -> (None, 0)
  | Some op -> (
    let o = st.order.(op) in
    match pick_victim st.placement ~host:st.hosts.(o) with
    | None -> (None, 0)
    | Some guest ->
      let venv = (Placement.problem st.placement).Problem.venv in
      let v = (Virtual_env.demand venv guest).Resources.mips in
      let n = Array.length st.order in
      let a = st.key.(o) in
      (* The largest |residual| sits at one end of the sorted order. *)
      let s =
        Float.max (Float.abs st.key.(st.order.(0))) (Float.abs st.key.(st.order.(n - 1)))
        +. v
      in
      (* A [move] that fails and rolls back leaves the origin's and
         the target's residuals up to two roundings each (4us in all)
         off the keys; each failure widens the slack by the 16us^2
         that can shift the sum of squares. The rolled-back residuals
         are re-read: a + v - v need not give back a's bits. *)
      let rec scan k evaluated slack failed =
        if k = n then (None, evaluated)
        else if k = op then scan (k + 1) evaluated slack failed
        else
          let i = st.order.(k) in
          if 2. *. v *. (a -. st.key.(i) +. v) > slack then (None, evaluated)
          else begin
            let host = st.hosts.(i) in
            if not (Placement.fits st.placement ~guest ~host) then
              scan (k + 1) (evaluated + 1) slack failed
            else begin
              let ro = st.res.(o) and ri = st.res.(i) in
              st.res.(o) <- ro +. v;
              st.res.(i) <- ri -. v;
              let lbf' = Objective.stddev st.res in
              st.res.(o) <- ro;
              st.res.(i) <- ri;
              if lbf' >= st.current -. improvement_eps then
                scan (k + 1) (evaluated + 1) slack failed
              else if move ~guest ~host then begin
                st.current <- lbf';
                (Some (o :: i :: failed), evaluated + 1)
              end
              else begin
                st.res.(o) <- Placement.residual_cpu st.placement ~host:st.hosts.(o);
                st.res.(i) <- Placement.residual_cpu st.placement ~host;
                scan (k + 1) (evaluated + 1)
                  (slack +. (8. *. epsilon_float *. s *. s))
                  (i :: failed)
              end
            end
          end
      in
      scan 0 0 (cut_slack ~n ~current:st.current ~s) [])

let loop placement ~max_moves ~move =
  let st = create placement in
  let rec go moves tried =
    if moves >= max_moves then (moves, tried)
    else
      match round st ~move with
      | None, evaluated -> (moves, tried + evaluated)
      | Some changed, evaluated ->
        List.iter (resync st) changed;
        go (moves + 1) (tried + evaluated)
  in
  go 0 0

let run ?max_moves placement =
  let problem = Placement.problem placement in
  let n_guests = Virtual_env.n_guests problem.Problem.venv in
  let max_moves = Option.value max_moves ~default:(16 * n_guests) in
  let lbf_before = Objective.load_balance_factor placement in
  let move ~guest ~host = Result.is_ok (Placement.migrate placement ~guest ~host) in
  let moves, tried = loop placement ~max_moves ~move in
  let module Metrics = Hmn_obs.Metrics in
  if Metrics.enabled () then begin
    Metrics.Counter.add (Metrics.counter "migration.moves_tried") tried;
    Metrics.Counter.add (Metrics.counter "migration.moves_accepted") moves
  end;
  { moves; lbf_before; lbf_after = Objective.load_balance_factor placement }
