module Cluster = Hmn_testbed.Cluster
module Resources = Hmn_testbed.Resources
module Virtual_env = Hmn_vnet.Virtual_env
module Placement = Hmn_mapping.Placement
module Problem = Hmn_mapping.Problem
module Mapping = Hmn_mapping.Mapping

type strategy = First_fit | Best_fit | Worst_fit | Consolidate

let strategy_name = function
  | First_fit -> "FFD"
  | Best_fit -> "BFD"
  | Worst_fit -> "WFD"
  | Consolidate -> "CONS"

let choose_host strategy placement hosts guest =
  let feasible =
    List.filter
      (fun h -> Placement.fits placement ~guest ~host:h)
      (Array.to_list hosts)
  in
  match feasible with
  | [] -> None
  | _ :: _ -> (
    match strategy with
    | First_fit -> Some (List.hd feasible)
    | Best_fit ->
      Some
        (Hmn_prelude.List_ext.min_by
           (fun h -> (Placement.residual placement ~host:h).Resources.mem_mb)
           feasible)
    | Worst_fit ->
      Some
        (Hmn_prelude.List_ext.max_by
           (fun h -> Placement.residual_cpu placement ~host:h)
           feasible)
    | Consolidate -> (
      match
        List.filter (fun h -> Placement.n_guests_on placement ~host:h > 0) feasible
      with
      | h :: _ -> Some h
      | [] -> Some (List.hd feasible)))

let place strategy (problem : Problem.t) =
  let placement = Placement.create problem in
  let hosts = Cluster.host_ids problem.Problem.cluster in
  let venv = problem.Problem.venv in
  let order = Array.init (Virtual_env.n_guests venv) Fun.id in
  Hmn_prelude.Array_ext.sort_by_desc
    (fun g -> (Virtual_env.demand venv g).Resources.mips)
    order;
  let exception Stuck of int in
  try
    Array.iter
      (fun guest ->
        match choose_host strategy placement hosts guest with
        | None -> raise (Stuck guest)
        | Some host -> (
          match Placement.assign placement ~guest ~host with
          | Ok () -> ()
          | Error msg -> failwith ("Packing.place: " ^ msg)))
      order;
    Ok placement
  with Stuck guest ->
    Error
      (Mapper.fail_detail ~detail:(Mapper.Unplaceable_guest { guest })
         ~stage:(strategy_name strategy ^ "-placement")
         ~reason:(Printf.sprintf "no host fits guest %d" guest))

let to_mapper strategy =
  {
    Mapper.name = strategy_name strategy;
    description =
      (match strategy with
      | First_fit -> "first-fit-decreasing placement + A*Prune networking"
      | Best_fit -> "best-fit-decreasing placement + A*Prune networking"
      | Worst_fit -> "worst-fit-decreasing placement + A*Prune networking"
      | Consolidate -> "consolidating placement (fewest hosts) + A*Prune networking");
    run =
      (fun ~rng:_ problem ->
        let run_once () =
          match place strategy problem with
          | Error _ as e -> e
          | Ok placement -> (
            match Networking.run placement with
            | Error f -> Error f
            | Ok (link_map, _) -> Ok (Mapping.make ~placement ~link_map))
        in
        let result, elapsed_s = Mapper.time run_once in
        Mapper.single_try ~result ~elapsed_s);
  }
