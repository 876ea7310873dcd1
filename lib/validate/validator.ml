module Graph = Hmn_graph.Graph
module Cluster = Hmn_testbed.Cluster
module Resources = Hmn_testbed.Resources
module Virtual_env = Hmn_vnet.Virtual_env
module Problem = Hmn_mapping.Problem
module Mapping = Hmn_mapping.Mapping
module Placement = Hmn_mapping.Placement
module Link_map = Hmn_mapping.Link_map
module Path = Hmn_routing.Path
module Residual = Hmn_routing.Residual

type violation =
  | Unassigned_guest of int
  | Guest_on_non_host of { guest : int; node : int }
  | Memory_exceeded of { host : int; used : float; capacity : float }
  | Storage_exceeded of { host : int; used : float; capacity : float }
  | Unmapped_vlink of int
  | Endpoint_mismatch of { vlink : int; reason : string }
  | Disconnected_path of { vlink : int; reason : string }
  | Path_not_simple of { vlink : int; node : int }
  | Latency_exceeded of { vlink : int; actual : float; bound : float }
  | Bandwidth_exceeded of { edge : int; used : float; capacity : float }
  | Residual_mismatch of { edge : int; stated : float; derived : float }
  | Objective_mismatch of { stated : float; derived : float }
  | Cpu_accounting_mismatch of { host : int; stated : float; derived : float }

type report = {
  violations : violation list;
  guests_checked : int;
  vlinks_checked : int;
  edges_checked : int;
  derived_lbf : float option;
}

type view = {
  problem : Problem.t;
  host_of : int -> int option;
  path_of : int -> Hmn_routing.Path.t option;
  residual_available : (int -> float) option;
  stated_lbf : float option;
}

let view_of_mapping (m : Mapping.t) =
  let residual = Link_map.residual m.Mapping.link_map in
  {
    problem = Mapping.problem m;
    host_of = (fun guest -> Placement.host_of m.Mapping.placement ~guest);
    path_of = (fun vlink -> Link_map.path_of m.Mapping.link_map ~vlink);
    residual_available = Some (fun eid -> Residual.available residual eid);
    stated_lbf = Some (Mapping.objective m);
  }

(* Memory/storage capacity slack: pure accumulation error of summing a
   few hundred demands. *)
let capacity_eps = 1e-6

(* The §6.1 ledger tolerance on per-edge bandwidth sums over [n_vlinks]
   routed links. *)
let ledger_tolerance n_vlinks = Residual.tolerance *. float_of_int (n_vlinks + 1)

let residual_tolerance problem =
  ledger_tolerance (Virtual_env.n_vlinks problem.Problem.venv)

(* the first node of [nodes] out of [0, n_nodes), from [i] on *)
let rec out_of_range nodes n_nodes i =
  if i = Array.length nodes then None
  else
    let u = nodes.(i) in
    if u < 0 || u >= n_nodes then Some u else out_of_range nodes n_nodes (i + 1)

(* does [u] occur in [nodes] before position [i], from [j] on? *)
let rec occurs_before nodes u i j = j < i && (nodes.(j) = u || occurs_before nodes u i (j + 1))

(* the first node of [nodes], in path order, that equals an earlier one,
   from [i] on. [seen] has bit [u land 31] set for every node [u]
   before [i], so a node whose bit is clear cannot repeat and is not
   compared at all. *)
let rec repeated nodes i seen =
  if i = Array.length nodes then None
  else
    let u = nodes.(i) in
    let bit = 1 lsl (u land 31) in
    if seen land bit <> 0 && occurs_before nodes u i 0 then Some u
    else repeated nodes (i + 1) (seen lor bit)

(* Walks the path against the physical graph itself: ids in range, each
   stated edge joining the consecutive node pair ([Graph.endpoints], not
   [Path.validate]), no node repeated. Returns [Error] on the first
   structural defect; latency/bandwidth are only meaningful on
   structurally sound paths. A node repeats when it equals one of the
   path's own earlier nodes: paths are a handful of hops, so scanning
   them costs less than any per-node table, and the scan stops at the
   first repeat, so it never reads past a simple prefix. *)
let check_path_structure cluster ~vlink (p : Path.t) =
  let g = Cluster.graph cluster in
  let n_edges = Graph.n_edges g in
  let nodes = p.Path.nodes and edges = p.Path.edges in
  let rec joined i =
    if i = Array.length edges then Ok ()
    else
      let eid = edges.(i) in
      if eid < 0 || eid >= n_edges then
        Error
          (Disconnected_path
             { vlink; reason = Printf.sprintf "edge %d out of range" eid })
      else
        let u, v = Graph.endpoints g eid in
        let a = nodes.(i) and b = nodes.(i + 1) in
        if (u = a && v = b) || (u = b && v = a) then joined (i + 1)
        else
          Error
            (Disconnected_path
               {
                 vlink;
                 reason =
                   Printf.sprintf
                     "edge %d joins %d-%d, not the consecutive nodes %d-%d" eid
                     u v a b;
               })
  in
  match out_of_range nodes (Graph.n_nodes g) 0 with
  | Some u ->
    Error
      (Disconnected_path { vlink; reason = Printf.sprintf "node %d out of range" u })
  | None -> (
    match repeated nodes 0 0 with
    | Some node -> Error (Path_not_simple { vlink; node })
    | None -> joined 0)

(* Loads re-derived from raw demands alone, by node and by edge. Both
   checks accumulate into one of these, so neither reads the producers'
   own residual bookkeeping. *)
type loads = {
  mem_used : float array;
  stor_used : float array;
  mips_used : float array;
  bw_used : float array;
}

let empty_loads cluster =
  let n_nodes = Cluster.n_nodes cluster in
  {
    mem_used = Array.make n_nodes 0.;
    stor_used = Array.make n_nodes 0.;
    mips_used = Array.make n_nodes 0.;
    bw_used = Array.make (Graph.n_edges (Cluster.graph cluster)) 0.;
  }

(* Eq. 1 per guest, summing the demands of the guests on hosts into
   [loads]. Returns whether every guest sits on a host. *)
let scan_guests cluster loads venv host_of report =
  let n_nodes = Cluster.n_nodes cluster in
  let complete = ref true in
  for guest = 0 to Virtual_env.n_guests venv - 1 do
    match host_of guest with
    | None ->
      complete := false;
      report (Unassigned_guest guest)
    | Some node ->
      if node < 0 || node >= n_nodes || not (Cluster.is_host cluster node) then begin
        complete := false;
        report (Guest_on_non_host { guest; node })
      end
      else begin
        let d = Virtual_env.demand venv guest in
        loads.mem_used.(node) <- loads.mem_used.(node) +. d.Resources.mem_mb;
        loads.stor_used.(node) <- loads.stor_used.(node) +. d.Resources.stor_gb;
        loads.mips_used.(node) <- loads.mips_used.(node) +. d.Resources.mips
      end
  done;
  !complete

(* Eqs. 4-8 per virtual link, adding each sound path's bandwidth to
   [loads] for Eq. 9. A path must run from the host of the link's first
   endpoint to the host of its second (Eqs. 4-5); a reversed path is
   flagged but still joins the two hosts, so its latency and bandwidth
   count as for a correctly oriented one. *)
let scan_vlinks cluster loads venv host_of path_of report =
  for vlink = 0 to Virtual_env.n_vlinks venv - 1 do
    let vs, vd = Virtual_env.endpoints venv vlink in
    match (host_of vs, host_of vd) with
    | None, _ | _, None -> ()  (* already reported as Unassigned_guest *)
    | Some hs, Some hd -> (
      match path_of vlink with
      | None -> if hs <> hd then report (Unmapped_vlink vlink)
      | Some p -> (
        match check_path_structure cluster ~vlink p with
        | Error v -> report v
        | Ok () ->
          let nodes = p.Path.nodes in
          let first = nodes.(0) and last = nodes.(Array.length nodes - 1) in
          let forward = first = hs && last = hd in
          if not forward then
            report
              (Endpoint_mismatch
                 {
                   vlink;
                   reason =
                     Printf.sprintf
                       "path runs %d..%d but must run from guest %d's host %d to \
                        guest %d's host %d"
                       first last vs hs vd hd;
                 });
          if forward || (first = hd && last = hs) then begin
            let spec = Virtual_env.vlink venv vlink in
            let edges = p.Path.edges in
            let latency = ref 0. in
            for i = 0 to Array.length edges - 1 do
              latency :=
                !latency +. (Cluster.link cluster edges.(i)).Hmn_testbed.Link.latency_ms
            done;
            if !latency > spec.Hmn_vnet.Vlink.latency_ms +. capacity_eps then
              report
                (Latency_exceeded
                   {
                     vlink;
                     actual = !latency;
                     bound = spec.Hmn_vnet.Vlink.latency_ms;
                   });
            let bw = spec.Hmn_vnet.Vlink.bandwidth_mbps in
            for i = 0 to Array.length edges - 1 do
              loads.bw_used.(edges.(i)) <- loads.bw_used.(edges.(i)) +. bw
            done
          end))
  done

(* Eqs. 2-3 per host, then the stated residual CPU against the derived
   one when given. *)
let scan_hosts cluster loads ~stated_cpu report =
  Array.iter
    (fun host ->
      let cap = Cluster.capacity cluster host in
      if loads.mem_used.(host) > cap.Resources.mem_mb +. capacity_eps then
        report
          (Memory_exceeded
             { host; used = loads.mem_used.(host); capacity = cap.Resources.mem_mb });
      if loads.stor_used.(host) > cap.Resources.stor_gb +. capacity_eps then
        report
          (Storage_exceeded
             { host; used = loads.stor_used.(host); capacity = cap.Resources.stor_gb });
      match stated_cpu with
      | None -> ()
      | Some stated_cpu ->
        let derived = cap.Resources.mips -. loads.mips_used.(host) in
        let stated = stated_cpu host in
        if not (Hmn_prelude.Float_ext.approx ~eps:1e-6 stated derived) then
          report (Cpu_accounting_mismatch { host; stated; derived }))
    (Cluster.host_ids cluster)

(* Eq. 9 against raw capacities, then the reconstruction against the
   stated residual bandwidth when given. [n_vlinks] sizes the §6.1
   ledger tolerance. *)
let scan_edges cluster loads ~n_vlinks ~stated_avail report =
  let bw_eps = ledger_tolerance n_vlinks in
  Array.iteri
    (fun eid used ->
      let cap = (Cluster.link cluster eid).Hmn_testbed.Link.bandwidth_mbps in
      if used > cap +. bw_eps then
        report (Bandwidth_exceeded { edge = eid; used; capacity = cap }))
    loads.bw_used;
  match stated_avail with
  | None -> ()
  | Some stated_avail ->
    Array.iteri
      (fun eid used ->
        let cap = (Cluster.link cluster eid).Hmn_testbed.Link.bandwidth_mbps in
        (* [Residual]'s exact ledger may sit up to its tolerance below
           zero after absorbed churn; the reconstruction clamps at zero,
           and the aggregate [bw_eps] covers the difference. *)
        let derived = Float.max 0. (cap -. used) in
        let stated = stated_avail eid in
        if Float.abs (stated -. derived) > bw_eps then
          report (Residual_mismatch { edge = eid; stated; derived }))
      loads.bw_used

(* Eq. 10 from the derived per-host MIPS loads only: residual CPU per
   host is its capacity minus the demand placed there; the LBF is the
   population standard deviation over hosts. Deliberately shares no
   code with [Objective] or [Placement]. *)
let derive_lbf cluster loads =
  let hosts = Cluster.host_ids cluster in
  let n = float_of_int (Array.length hosts) in
  let rproc =
    Array.map
      (fun h -> (Cluster.capacity cluster h).Resources.mips -. loads.mips_used.(h))
      hosts
  in
  let mean = Array.fold_left ( +. ) 0. rproc /. n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. rproc /. n
  in
  sqrt var

let check_view view =
  let problem = view.problem in
  let cluster = problem.Problem.cluster in
  let venv = problem.Problem.venv in
  let n_vlinks = Virtual_env.n_vlinks venv in
  let violations = ref [] in
  let report v = violations := v :: !violations in
  let loads = empty_loads cluster in
  let complete = scan_guests cluster loads venv view.host_of report in
  scan_hosts cluster loads ~stated_cpu:None report;
  scan_vlinks cluster loads venv view.host_of view.path_of report;
  scan_edges cluster loads ~n_vlinks ~stated_avail:view.residual_available report;
  let derived_lbf = if complete then Some (derive_lbf cluster loads) else None in
  (match (view.stated_lbf, derived_lbf) with
  | Some stated, Some derived
    when not (Hmn_prelude.Float_ext.approx ~eps:1e-6 stated derived) ->
    report (Objective_mismatch { stated; derived })
  | _ -> ());
  {
    violations = List.rev !violations;
    guests_checked = Virtual_env.n_guests venv;
    vlinks_checked = n_vlinks;
    edges_checked = Graph.n_edges (Cluster.graph cluster);
    derived_lbf;
  }

let check m = check_view (view_of_mapping m)

let is_valid m = (check m).violations = []

(* ---- Multi-tenant validation (the online service's oracle) ---- *)

type tenant_view = {
  venv : Virtual_env.t;
  t_host_of : int -> int option;
  t_path_of : int -> Hmn_routing.Path.t option;
}

type multi_report = {
  per_tenant : (int * violation list) list;
  shared : violation list;
  tenants_checked : int;
  m_guests_checked : int;
  m_vlinks_checked : int;
}

let multi_ok r = r.per_tenant = [] && r.shared = []

let check_tenants ?stated_bw_available ?stated_residual_cpu ~cluster ~tenants () =
  (* Shared accumulation: demands of every tenant summed against the
     raw capacities — nothing is read from the service's own residual
     bookkeeping, which is exactly what makes this an oracle for it. *)
  let loads = empty_loads cluster in
  let total_guests = ref 0 and total_vlinks = ref 0 in
  let per_tenant =
    List.filter_map
      (fun (tenant_id, tv) ->
        let venv = tv.venv in
        total_guests := !total_guests + Virtual_env.n_guests venv;
        total_vlinks := !total_vlinks + Virtual_env.n_vlinks venv;
        let violations = ref [] in
        let report v = violations := v :: !violations in
        ignore (scan_guests cluster loads venv tv.t_host_of report : bool);
        scan_vlinks cluster loads venv tv.t_host_of tv.t_path_of report;
        match List.rev !violations with
        | [] -> None
        | vs -> Some (tenant_id, vs))
      tenants
  in
  let shared = ref [] in
  let report v = shared := v :: !shared in
  scan_hosts cluster loads ~stated_cpu:stated_residual_cpu report;
  scan_edges cluster loads ~n_vlinks:!total_vlinks ~stated_avail:stated_bw_available
    report;
  {
    per_tenant;
    shared = List.rev !shared;
    tenants_checked = List.length tenants;
    m_guests_checked = !total_guests;
    m_vlinks_checked = !total_vlinks;
  }

let violation_label = function
  | Unassigned_guest _ -> "unassigned-guest"
  | Guest_on_non_host _ -> "guest-on-non-host"
  | Memory_exceeded _ -> "memory-exceeded"
  | Storage_exceeded _ -> "storage-exceeded"
  | Unmapped_vlink _ -> "unmapped-vlink"
  | Endpoint_mismatch _ -> "endpoint-mismatch"
  | Disconnected_path _ -> "disconnected-path"
  | Path_not_simple _ -> "path-not-simple"
  | Latency_exceeded _ -> "latency-exceeded"
  | Bandwidth_exceeded _ -> "bandwidth-exceeded"
  | Residual_mismatch _ -> "residual-mismatch"
  | Objective_mismatch _ -> "objective-mismatch"
  | Cpu_accounting_mismatch _ -> "cpu-accounting-mismatch"

let pp_violation ppf = function
  | Unassigned_guest g -> Format.fprintf ppf "guest %d is unassigned" g
  | Guest_on_non_host { guest; node } ->
    Format.fprintf ppf "guest %d placed on non-host node %d" guest node
  | Memory_exceeded { host; used; capacity } ->
    Format.fprintf ppf "host %d memory exceeded: %.1f/%.1f MB" host used capacity
  | Storage_exceeded { host; used; capacity } ->
    Format.fprintf ppf "host %d storage exceeded: %.1f/%.1f GB" host used capacity
  | Unmapped_vlink v -> Format.fprintf ppf "virtual link %d has no path" v
  | Endpoint_mismatch { vlink; reason } ->
    Format.fprintf ppf "virtual link %d endpoint mismatch: %s" vlink reason
  | Disconnected_path { vlink; reason } ->
    Format.fprintf ppf "virtual link %d path disconnected: %s" vlink reason
  | Path_not_simple { vlink; node } ->
    Format.fprintf ppf "virtual link %d path visits node %d twice" vlink node
  | Latency_exceeded { vlink; actual; bound } ->
    Format.fprintf ppf "virtual link %d latency %.2f ms exceeds bound %.2f ms"
      vlink actual bound
  | Bandwidth_exceeded { edge; used; capacity } ->
    Format.fprintf ppf "physical link %d bandwidth exceeded: %.3f/%.3f Mbps" edge
      used capacity
  | Residual_mismatch { edge; stated; derived } ->
    Format.fprintf ppf
      "physical link %d residual drift: state says %.6f Mbps free, links sum to \
       %.6f"
      edge stated derived
  | Objective_mismatch { stated; derived } ->
    Format.fprintf ppf "load-balance factor mismatch: reported %.6f, Eq. 10 gives %.6f"
      stated derived
  | Cpu_accounting_mismatch { host; stated; derived } ->
    Format.fprintf ppf
      "host %d residual-CPU drift: state says %.6f MIPS free, demands sum to %.6f"
      host stated derived

let pp_report ppf r =
  match r.violations with
  | [] ->
    Format.fprintf ppf
      "valid: %d guests, %d virtual links, %d physical links re-checked"
      r.guests_checked r.vlinks_checked r.edges_checked
  | vs ->
    Format.fprintf ppf "%d violation(s):" (List.length vs);
    List.iter (fun v -> Format.fprintf ppf "@\n  %a" pp_violation v) vs

let pp_multi_report ppf r =
  if multi_ok r then
    Format.fprintf ppf
      "valid: %d tenants (%d guests, %d virtual links) re-checked against the \
       shared cluster"
      r.tenants_checked r.m_guests_checked r.m_vlinks_checked
  else begin
    Format.fprintf ppf "%d tenant-local and %d shared violation(s):"
      (List.fold_left (fun acc (_, vs) -> acc + List.length vs) 0 r.per_tenant)
      (List.length r.shared);
    List.iter
      (fun (tenant, vs) ->
        List.iter
          (fun v -> Format.fprintf ppf "@\n  tenant %d: %a" tenant pp_violation v)
          vs)
      r.per_tenant;
    List.iter (fun v -> Format.fprintf ppf "@\n  shared: %a" pp_violation v) r.shared
  end
