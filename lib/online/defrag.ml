module Problem = Hmn_mapping.Problem
module Placement = Hmn_mapping.Placement
module Link_map = Hmn_mapping.Link_map
module Mapping = Hmn_mapping.Mapping

type config = {
  interval_s : float;
  trigger : float;
  max_moves_per_round : int;
}

let default = { interval_s = 120.; trigger = 1.0; max_moves_per_round = 4 }

(* Rebuild a tenant's mapping on the residual cluster that excludes the
   tenant itself. Feasibility is an invariant (the tenant's demands are
   part of the usage that was subtracted out), so any failure here is a
   bookkeeping bug and fails loudly. *)
let replay occupancy (tn : Tenant.t) =
  let cluster = Occupancy.residual_cluster ~exclude:tn.id occupancy in
  let problem = Problem.make ~cluster ~venv:tn.venv in
  let placement = Placement.create problem in
  Array.iteri
    (fun g h ->
      match Placement.assign placement ~guest:g ~host:h with
      | Ok () -> ()
      | Error e ->
          failwith
            (Printf.sprintf "Defrag.replay: tenant %d guest %d: %s" tn.id g e))
    tn.hosts;
  let link_map = Link_map.create problem in
  Array.iteri
    (fun v p ->
      match Link_map.assign link_map ~vlink:v p with
      | Ok () -> ()
      | Error e ->
          failwith
            (Printf.sprintf "Defrag.replay: tenant %d vlink %d: %s" tn.id v e))
    tn.paths;
  Mapping.make ~placement ~link_map

let round ?(on_move = fun (_ : int) -> ()) ~occupancy ~threshold ~max_moves () =
  let moves = ref 0 in
  let progress = ref true in
  while !progress && !moves < max_moves && Occupancy.lbf occupancy > threshold
  do
    progress := false;
    let ids =
      List.map (fun (tn : Tenant.t) -> tn.id) (Occupancy.tenants occupancy)
    in
    List.iter
      (fun id ->
        if !moves < max_moves && Occupancy.lbf occupancy > threshold then
          match Occupancy.find occupancy ~id with
          | None -> ()
          | Some tn ->
              let mapping = replay occupancy tn in
              let inc =
                Incremental.create
                  ~latency_tables:(Occupancy.latency_tables occupancy)
                  mapping
              in
              (* one move at a time so the validation hook sees every
                 intermediate state *)
              let n = Incremental.rebalance ~max_moves:1 inc in
              if n > 0 then begin
                let tn' =
                  Tenant.of_mapping ~id ~arrived_at:tn.arrived_at
                    ~holding_s:tn.holding_s (Incremental.mapping inc)
                in
                Occupancy.replace occupancy tn';
                moves := !moves + n;
                progress := true;
                on_move id
              end)
      ids
  done;
  !moves
