module Graph = Hmn_graph.Graph
module Virtual_env = Hmn_vnet.Virtual_env
module Placement = Hmn_mapping.Placement
module Problem = Hmn_mapping.Problem
module Link_map = Hmn_mapping.Link_map
module Mapping = Hmn_mapping.Mapping
module Path = Hmn_routing.Path
module Migration = Hmn_core.Migration
module Validator = Hmn_validate.Validator

type t = {
  mapping : Mapping.t;
  latency_tables : Hmn_routing.Latency_table.t;
}

let create ?latency_tables mapping =
  (match (Validator.check mapping).Validator.violations with
  | [] -> ()
  | v :: _ ->
    invalid_arg
      (Format.asprintf "Incremental.create: mapping is invalid: %a"
         Validator.pp_violation v));
  {
    mapping;
    latency_tables =
      (match latency_tables with
      | Some tables -> tables
      | None ->
        Hmn_routing.Latency_table.create (Mapping.problem mapping).Problem.cluster);
  }

let mapping t = t.mapping

(* The virtual links incident to [guest], with their current paths. *)
let incident_links t guest =
  let venv = (Mapping.problem t.mapping).Problem.venv in
  Graph.fold_adj (Virtual_env.graph venv) guest ~init:[]
    ~f:(fun acc ~neighbor ~eid ->
      (eid, neighbor, Link_map.path_of t.mapping.Mapping.link_map ~vlink:eid) :: acc)

let route_link t ~vlink ~src ~dst =
  let venv = (Mapping.problem t.mapping).Problem.venv in
  let spec = Virtual_env.vlink venv vlink in
  if src = dst then Some (Path.trivial src)
  else
    Hmn_routing.Astar_prune.widest_feasible
      ~residual:(Link_map.residual t.mapping.Mapping.link_map)
      ~latency_tables:t.latency_tables ~src ~dst
      ~bandwidth_mbps:spec.Hmn_vnet.Vlink.bandwidth_mbps
      ~latency_ms:spec.Hmn_vnet.Vlink.latency_ms ()

let move_guest t ~guest ~host =
  let placement = t.mapping.Mapping.placement in
  let link_map = t.mapping.Mapping.link_map in
  match Placement.host_of placement ~guest with
  | None -> Error (Printf.sprintf "guest %d is not placed" guest)
  | Some old_host when old_host = host -> Ok ()
  | Some old_host ->
    let links = incident_links t guest in
    (* Tear down the old paths first so their bandwidth is reusable,
       remembering them for rollback. *)
    List.iter
      (fun (vlink, _, path) ->
        match path with
        | Some _ -> (
          match Link_map.unassign link_map ~vlink with
          | Ok () -> ()
          | Error msg -> failwith ("Incremental.move_guest: " ^ msg))
        | None -> ())
      links;
    let restore_links () =
      List.iter
        (fun (vlink, _, path) ->
          match path with
          | Some p -> (
            match Link_map.assign link_map ~vlink p with
            | Ok () -> ()
            | Error msg -> failwith ("Incremental.move_guest: rollback: " ^ msg))
          | None -> ())
        links
    in
    (match Placement.migrate placement ~guest ~host with
    | Error msg ->
      restore_links ();
      Error msg
    | Ok () ->
      (* Re-route each affected link, keeping the paper's orientation:
         a path runs from the host of the link's first endpoint to the
         host of its second (Eq. 4). *)
      let venv = (Mapping.problem t.mapping).Problem.venv in
      let rec reroute done_links = function
        | [] -> Ok ()
        | (vlink, _neighbor, _) :: rest -> (
          let vs, vd = Virtual_env.endpoints venv vlink in
          let src = Placement.host_of_exn placement ~guest:vs in
          let dst = Placement.host_of_exn placement ~guest:vd in
          match route_link t ~vlink ~src ~dst with
          | Some path -> (
            match Link_map.assign link_map ~vlink path with
            | Ok () -> reroute (vlink :: done_links) rest
            | Error msg -> Error (done_links, msg))
          | None ->
            Error
              ( done_links,
                Printf.sprintf "no feasible path for virtual link %d after the move"
                  vlink ))
      in
      (match reroute [] links with
      | Ok () -> Ok ()
      | Error (done_links, msg) ->
        (* Unwind the new paths, move back, restore the old paths. *)
        List.iter
          (fun vlink ->
            match Link_map.unassign link_map ~vlink with
            | Ok () -> ()
            | Error m -> failwith ("Incremental.move_guest: rollback: " ^ m))
          done_links;
        (match Placement.migrate placement ~guest ~host:old_host with
        | Ok () -> ()
        | Error m -> failwith ("Incremental.move_guest: rollback migrate: " ^ m));
        restore_links ();
        Error msg))

let rebalance ?max_moves t =
  let problem = Mapping.problem t.mapping in
  let n_guests = Virtual_env.n_guests problem.Problem.venv in
  let max_moves = Option.value max_moves ~default:(4 * n_guests) in
  let move ~guest ~host = Result.is_ok (move_guest t ~guest ~host) in
  fst (Migration.loop t.mapping.Mapping.placement ~max_moves ~move)
