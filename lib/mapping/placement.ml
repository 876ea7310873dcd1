module Cluster = Hmn_testbed.Cluster
module Resources = Hmn_testbed.Resources
module Virtual_env = Hmn_vnet.Virtual_env

type t = {
  problem : Problem.t;
  host_of : int array;  (* guest -> host id or -1 *)
  residual : Resources.t array;  (* indexed by cluster node id *)
  (* node id -> set of guests; [no_guests] until the node's first
     assignment *)
  on_host : (int, unit) Hashtbl.t array;
  mutable assigned : int;
}

(* The set of every node that has never held a guest: shared, never
   written. *)
let no_guests : (int, unit) Hashtbl.t = Hashtbl.create 1

let create problem =
  let n_nodes = Cluster.n_nodes problem.Problem.cluster in
  {
    problem;
    host_of = Array.make (Virtual_env.n_guests problem.Problem.venv) (-1);
    residual = Array.init n_nodes (Cluster.capacity problem.Problem.cluster);
    on_host = Array.make n_nodes no_guests;
    assigned = 0;
  }

let problem t = t.problem

let copy t =
  {
    t with
    host_of = Array.copy t.host_of;
    residual = Array.copy t.residual;
    on_host =
      Array.map
        (fun set -> if set == no_guests then set else Hashtbl.copy set)
        t.on_host;
  }

let check_guest t guest =
  if guest < 0 || guest >= Array.length t.host_of then
    invalid_arg "Placement: guest out of range"

let check_host t host =
  if host < 0 || host >= Array.length t.residual then
    invalid_arg "Placement: host out of range"

let host_of t ~guest =
  check_guest t guest;
  if t.host_of.(guest) = -1 then None else Some t.host_of.(guest)

let is_assigned t ~guest = host_of t ~guest <> None

let n_assigned t = t.assigned
let all_assigned t = t.assigned = Array.length t.host_of

let demand t guest = Virtual_env.demand t.problem.Problem.venv guest

let fits t ~guest ~host =
  check_guest t guest;
  check_host t host;
  Cluster.is_host t.problem.Problem.cluster host
  && Resources.fits_mem_stor ~demand:(demand t guest) ~avail:t.residual.(host)

let assign t ~guest ~host =
  check_guest t guest;
  check_host t host;
  if t.host_of.(guest) <> -1 then
    Error (Printf.sprintf "guest %d already assigned to host %d" guest t.host_of.(guest))
  else if not (Cluster.is_host t.problem.Problem.cluster host) then
    Error (Printf.sprintf "node %d cannot run guests" host)
  else if not (fits t ~guest ~host) then
    Error (Printf.sprintf "guest %d does not fit on host %d" guest host)
  else begin
    t.host_of.(guest) <- host;
    t.residual.(host) <- Resources.sub t.residual.(host) (demand t guest);
    if t.on_host.(host) == no_guests then t.on_host.(host) <- Hashtbl.create 8;
    Hashtbl.replace t.on_host.(host) guest ();
    t.assigned <- t.assigned + 1;
    Ok ()
  end

let unassign t ~guest =
  check_guest t guest;
  match t.host_of.(guest) with
  | -1 -> Error (Printf.sprintf "guest %d is not assigned" guest)
  | host ->
    t.host_of.(guest) <- -1;
    t.residual.(host) <- Resources.add t.residual.(host) (demand t guest);
    Hashtbl.remove t.on_host.(host) guest;
    t.assigned <- t.assigned - 1;
    Ok ()

let migrate t ~guest ~host =
  check_guest t guest;
  check_host t host;
  match t.host_of.(guest) with
  | -1 -> Error (Printf.sprintf "guest %d is not assigned" guest)
  | old_host -> (
    match unassign t ~guest with
    | Error _ as e -> e
    | Ok () -> (
      match assign t ~guest ~host with
      | Ok () -> Ok ()
      | Error _ as e ->
        (* Roll back; re-assignment to the previous host cannot fail. *)
        (match assign t ~guest ~host:old_host with
        | Ok () -> ()
        | Error msg -> failwith ("Placement.migrate: rollback failed: " ^ msg));
        e))

let residual t ~host =
  check_host t host;
  t.residual.(host)

let residual_cpu t ~host = (residual t ~host).Resources.mips

let guests_on t ~host =
  check_host t host;
  List.sort Int.compare (Hashtbl.fold (fun g () acc -> g :: acc) t.on_host.(host) [])

let n_guests_on t ~host =
  check_host t host;
  Hashtbl.length t.on_host.(host)

let host_of_exn t ~guest =
  match host_of t ~guest with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "Placement.host_of_exn: guest %d unassigned" guest)
