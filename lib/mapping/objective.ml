module Cluster = Hmn_testbed.Cluster
module Resources = Hmn_testbed.Resources
module Virtual_env = Hmn_vnet.Virtual_env

let residual_cpus placement =
  let cluster = (Placement.problem placement).Problem.cluster in
  Array.map (fun h -> Placement.residual_cpu placement ~host:h) (Cluster.host_ids cluster)

let stddev xs =
  let n = float_of_int (Array.length xs) in
  let mean = Hmn_prelude.Float_ext.sum xs /. n in
  (* [**] is libm's pow, whose bits differ from [d *. d] on some
     inputs: keep it, or every pinned LBF can move. *)
  let acc = ref 0. in
  for i = 0 to Array.length xs - 1 do
    acc := !acc +. ((xs.(i) -. mean) ** 2.)
  done;
  sqrt (!acc /. n)

let load_balance_factor placement = stddev (residual_cpus placement)

let load_balance_after_migration placement ~guest ~host =
  match Placement.host_of placement ~guest with
  | None -> None
  | Some current when current = host -> None
  | Some current ->
    if not (Placement.fits placement ~guest ~host) then None
    else begin
      let cluster = (Placement.problem placement).Problem.cluster in
      let venv = (Placement.problem placement).Problem.venv in
      let vproc = (Virtual_env.demand venv guest).Resources.mips in
      let cpus = residual_cpus placement in
      let hosts = Cluster.host_ids cluster in
      Array.iteri
        (fun i h ->
          if h = current then cpus.(i) <- cpus.(i) +. vproc
          else if h = host then cpus.(i) <- cpus.(i) -. vproc)
        hosts;
      Some (stddev cpus)
    end

let active_hosts placement =
  let cluster = (Placement.problem placement).Problem.cluster in
  Hmn_prelude.Array_ext.count
    (fun h -> Placement.n_guests_on placement ~host:h > 0)
    (Cluster.host_ids cluster)
