type workload_kind = High_level | Low_level

type cluster_kind = Torus | Switched

type t = {
  ratio : float;
  density : float;
  workload : workload_kind;
}

let paper_scenarios =
  let high =
    List.concat_map
      (fun density ->
        List.map
          (fun ratio -> { ratio; density; workload = High_level })
          [ 2.5; 5.; 7.5; 10. ])
      [ 0.015; 0.02; 0.025 ]
  in
  let low =
    List.map
      (fun ratio -> { ratio; density = 0.01; workload = Low_level })
      [ 20.; 30.; 40.; 50. ]
  in
  high @ low

let n_guests t =
  int_of_float (Float.round (t.ratio *. float_of_int Setup.n_hosts))

let workload_profile = function
  | High_level -> Hmn_vnet.Workload.high_level
  | Low_level -> Hmn_vnet.Workload.low_level

let profile t = workload_profile t.workload

let label t =
  let ratio =
    if Float.is_integer t.ratio then Printf.sprintf "%.0f:1" t.ratio
    else Printf.sprintf "%.1f:1" t.ratio
  in
  Printf.sprintf "%s %.3g" ratio t.density

let cluster_label = function Torus -> "2-D Torus" | Switched -> "Switched"

let build_cluster kind ~rng =
  match kind with
  | Torus ->
    Hmn_testbed.Cluster_gen.torus_cluster ~vmm:Setup.vmm ~profile:Setup.host_profile
      ~link:Setup.physical_link ~rows:Setup.torus_rows ~cols:Setup.torus_cols ~rng ()
  | Switched ->
    Hmn_testbed.Cluster_gen.switched_cluster ~vmm:Setup.vmm
      ~profile:Setup.host_profile ~link:Setup.physical_link
      ~ports:Setup.switch_ports ~n:Setup.n_hosts ~rng ()

let build t kind ~seed =
  let rng = Hmn_rng.Rng.create seed in
  let cluster = build_cluster kind ~rng in
  let venv =
    Hmn_vnet.Venv_gen.generate
      ~scale_to_fit:(cluster, Setup.fit_fraction)
      ~profile:(profile t) ~n:(n_guests t) ~density:t.density ~rng ()
  in
  Hmn_mapping.Problem.make ~cluster ~venv
