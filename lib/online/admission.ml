module Mapper = Hmn_core.Mapper
module Cluster = Hmn_testbed.Cluster
module Resources = Hmn_testbed.Resources
module Venv = Hmn_vnet.Virtual_env
module Journal = Hmn_obs.Journal

type verdict =
  | Admitted of { mapping : Hmn_mapping.Mapping.t; elapsed_s : float; tries : int }
  | Rejected of {
      stage : string;
      reason : string;
      elapsed_s : float;
      tries : int;
      detail : Mapper.failure_detail option;
    }

let try_admit ?residual ~occupancy ~policy ~venv ~rng () =
  let residual =
    match residual with
    | Some r -> r
    | None -> Occupancy.residual_cluster occupancy
  in
  let problem = Hmn_mapping.Problem.make ~cluster:residual ~venv in
  match Hmn_mapping.Problem.obviously_infeasible problem with
  | Some reason ->
      Rejected { stage = "screen"; reason; elapsed_s = 0.; tries = 0; detail = None }
  | None -> (
      let outcome = policy.Mapper.run ~rng problem in
      match outcome.result with
      | Ok mapping ->
          Admitted { mapping; elapsed_s = outcome.elapsed_s; tries = outcome.tries }
      | Error f ->
          Rejected
            {
              stage = f.stage;
              reason = f.reason;
              elapsed_s = outcome.elapsed_s;
              tries = outcome.tries;
              detail = f.detail;
            })

let work ~venv ~tries =
  1 + (tries * (Venv.n_guests venv + (2 * Venv.n_vlinks venv)))

(* ---- rejection-cause classification ----

   Everything below judges against the residual cluster as the request
   first saw it (before any of the request's own reservations), which
   makes the verdict independently re-derivable: the validator's
   [Hmn_validate.Decision] implements the same semantics over the raw
   graph and the service compares the two. *)

(* The request's most memory-demanding guest (ties: storage, then the
   lower index) — the probe for candidate counting. *)
let probe_guest venv =
  let best = ref 0 in
  for g = 1 to Venv.n_guests venv - 1 do
    let d = Venv.demand venv g and b = Venv.demand venv !best in
    if
      d.Resources.mem_mb > b.Resources.mem_mb
      || (d.Resources.mem_mb = b.Resources.mem_mb
         && d.Resources.stor_gb > b.Resources.stor_gb)
    then best := g
  done;
  !best

let fitting_hosts residual (d : Resources.t) =
  Array.fold_left
    (fun acc h ->
      if Resources.fits_mem_stor ~demand:d ~avail:(Cluster.capacity residual h)
      then acc + 1
      else acc)
    0 (Cluster.host_ids residual)

let candidate_hosts ~residual ~venv =
  fitting_hosts residual (Venv.demand venv (probe_guest venv))

(* Hosting-stage resource attribution for one guest. When the guest
   fits nowhere, the resource that locks it out of more hosts is
   binding; when it still fits somewhere (the mapper died packing other
   guests), the aggregate-scarcer resource is binding. CPU is never a
   gate in this model (Resources.fits_mem_stor), so it is never
   binding. *)
let classify_hosting ~residual ~venv ~guest =
  let d = Venv.demand venv guest in
  let hosts = Cluster.host_ids residual in
  let count f = Array.fold_left (fun acc h -> if f h then acc + 1 else acc) 0 hosts in
  let mem_fits =
    count (fun h ->
        d.Resources.mem_mb <= (Cluster.capacity residual h).Resources.mem_mb)
  in
  let stor_fits =
    count (fun h ->
        d.Resources.stor_gb <= (Cluster.capacity residual h).Resources.stor_gb)
  in
  let both = fitting_hosts residual d in
  if both = 0 then begin
    let resource =
      if mem_fits = 0 then Journal.Mem
      else if stor_fits = 0 then Journal.Stor
      else if mem_fits <= stor_fits then Journal.Mem
      else Journal.Stor
    in
    let binding =
      Printf.sprintf
        "guest %d (%.0f MB, %.1f GB) fits no host: mem fits %d, stor fits %d"
        guest d.Resources.mem_mb d.Resources.stor_gb mem_fits stor_fits
    in
    (resource, binding)
  end
  else begin
    let total_res =
      Array.fold_left
        (fun acc h -> Resources.add acc (Cluster.capacity residual h))
        Resources.zero hosts
    in
    let total_dem = Venv.total_demand venv in
    let ratio dem cap = if cap <= 0. then Float.infinity else dem /. cap in
    let rm = ratio total_dem.Resources.mem_mb total_res.Resources.mem_mb in
    let rs = ratio total_dem.Resources.stor_gb total_res.Resources.stor_gb in
    let resource = if rm >= rs then Journal.Mem else Journal.Stor in
    let binding =
      Printf.sprintf
        "packing: guest %d fits %d hosts but placement exhausted them \
         (aggregate mem %.2f, stor %.2f of residual)"
        guest both rm rs
    in
    (resource, binding)
  end

(* The guest hardest to place — fewest jointly fitting hosts, ties to
   the larger memory demand then the lower index. Used when the failed
   stage did not identify the guest. *)
let hardest_guest ~residual ~venv =
  let best = ref 0 in
  let best_fit = ref max_int in
  let best_mem = ref neg_infinity in
  for g = 0 to Venv.n_guests venv - 1 do
    let d = Venv.demand venv g in
    let fit = fitting_hosts residual d in
    if fit < !best_fit || (fit = !best_fit && d.Resources.mem_mb > !best_mem)
    then begin
      best := g;
      best_fit := fit;
      best_mem := d.Resources.mem_mb
    end
  done;
  !best

(* Bandwidth-vs-latency attribution for an unroutable vlink: Dijkstra
   over edges with enough residual bandwidth is simultaneously a
   reachability check and the minimum achievable latency. A path that
   exists in the fresh residual but was killed by the request's own
   earlier reservations counts as bandwidth. *)
let classify_networking ~residual ~src ~dst ~bandwidth_mbps ~latency_ms =
  let bandwidths = Cluster.link_bandwidths residual in
  let weight =
    Array.mapi
      (fun eid lat -> if bandwidths.(eid) >= bandwidth_mbps then lat else Float.infinity)
      (Cluster.link_latencies residual)
  in
  let dist = Hmn_graph.Csr.dijkstra_from (Cluster.csr residual) ~weight ~src in
  if dist.(dst) = Float.infinity then
    ( Journal.Bandwidth,
      Printf.sprintf "no path with %.3f Mbps free between hosts %d and %d"
        bandwidth_mbps src dst )
  else if dist.(dst) > latency_ms then
    ( Journal.Latency,
      Printf.sprintf
        "best feasible path %.1f ms exceeds the %.1f ms bound (hosts %d -> %d)"
        dist.(dst) latency_ms src dst )
  else
    ( Journal.Bandwidth,
      Printf.sprintf
        "feasible in the fresh residual (%.1f ms <= %.1f ms); the request's \
         own reservations exhausted bandwidth"
        dist.(dst) latency_ms )

type explanation = {
  cause : Journal.cause;
  binding : string;
  detail : Journal.detail;
}

let networking_stages = [ "networking"; "dfs-routing" ]

let explain ~residual ~venv ~stage ~reason ~detail =
  match stage with
  | "screen" -> (
      let problem = Hmn_mapping.Problem.make ~cluster:residual ~venv in
      match Hmn_mapping.Problem.obviously_infeasible_cause problem with
      | Some (cause, msg) ->
          let screen =
            match cause with
            | Hmn_mapping.Problem.Aggregate_mem -> Journal.Agg_mem
            | Hmn_mapping.Problem.Aggregate_stor -> Journal.Agg_stor
            | Hmn_mapping.Problem.Disconnected -> Journal.Disconnected
          in
          {
            cause = Journal.Screened screen;
            binding = msg;
            detail = Journal.No_detail;
          }
      | None ->
          (* cannot happen: the stage only reports "screen" when the
             screen fired; fall back to the raw reason *)
          {
            cause = Journal.Screened Journal.Agg_mem;
            binding = reason;
            detail = Journal.No_detail;
          })
  | _ -> (
      match detail with
      | Some (Mapper.Unplaceable_guest { guest }) ->
          let resource, binding = classify_hosting ~residual ~venv ~guest in
          { cause = Journal.Hosting resource; binding; detail = Journal.Guest guest }
      | Some
          (Mapper.Unroutable_vlink
             { vlink; src_host; dst_host; bandwidth_mbps; latency_ms }) ->
          let net, binding =
            classify_networking ~residual ~src:src_host ~dst:dst_host
              ~bandwidth_mbps ~latency_ms
          in
          {
            cause = Journal.Networking net;
            binding;
            detail =
              Journal.Vlink
                { vlink; src_host; dst_host; bandwidth_mbps; latency_ms };
          }
      | None ->
          if List.mem stage networking_stages then
            (* the stage failed routing without naming the vlink (e.g. a
               reservation bug surfaced as an assign error): attributed
               to bandwidth by convention, mirrored by the validator *)
            {
              cause = Journal.Networking Journal.Bandwidth;
              binding = reason;
              detail = Journal.No_detail;
            }
          else begin
            let guest = hardest_guest ~residual ~venv in
            let resource, binding = classify_hosting ~residual ~venv ~guest in
            {
              cause = Journal.Hosting resource;
              binding;
              detail = Journal.Guest guest;
            }
          end)

let find_policy name =
  match Hmn_core.Registry.find name with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "unknown policy %S (available: %s)" name
           (String.concat ", " (Hmn_core.Registry.names ())))
