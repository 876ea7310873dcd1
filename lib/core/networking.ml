module Virtual_env = Hmn_vnet.Virtual_env
module Placement = Hmn_mapping.Placement
module Problem = Hmn_mapping.Problem
module Link_map = Hmn_mapping.Link_map
module Path = Hmn_routing.Path
module Astar_prune = Hmn_routing.Astar_prune
module Metrics = Hmn_obs.Metrics
module Trace = Hmn_obs.Trace

type stats = {
  routed : int;
  intra_host : int;
  expanded : int;
  generated : int;
  precompute_s : float;
  fast_path : int;
}

let run ?router placement =
  if not (Placement.all_assigned placement) then
    invalid_arg "Networking.run: placement is incomplete";
  let problem = Placement.problem placement in
  let venv = problem.Problem.venv in
  let link_map = Link_map.create problem in
  let latency_tables = Hmn_routing.Latency_table.create problem.Problem.cluster in
  (* Eager fill: every routed link targets a host, so from here on the
     table is a read-only lookup on the A*Prune hot path. *)
  Hmn_routing.Latency_table.precompute latency_tables;
  (* Per-vlink tallies live in local ints and are flushed into the
     stats record once at the end — the previous functional record
     update allocated a fresh record per routed vlink. *)
  let routed = ref 0 and intra_host = ref 0 in
  let expanded = ref 0 and generated = ref 0 in
  (* One reusable context for the whole pass: label arena, heap and
     Pareto pools reach a steady state after the first few routes. *)
  let ctx = Hmn_routing.Route_ctx.create () in
  let default_router ~residual ~latency_tables ~src ~dst ~bandwidth_mbps ~latency_ms ()
      =
    match
      Astar_prune.route ~ctx ~residual ~latency_tables ~src ~dst ~bandwidth_mbps
        ~latency_ms ()
    with
    | None -> None
    | Some (path, s) ->
      expanded := !expanded + s.Astar_prune.expanded;
      generated := !generated + s.Astar_prune.generated;
      Some path
  in
  let router = Option.value router ~default:default_router in
  let exception Networking_failed of Mapper.failure_detail option * string in
  try
    Array.iter
      (fun vlink ->
        let vs, vd = Virtual_env.endpoints venv vlink in
        let hs = Placement.host_of_exn placement ~guest:vs in
        let hd = Placement.host_of_exn placement ~guest:vd in
        if hs = hd then begin
          (* Intra-host: trivial path, no bandwidth reserved. *)
          (match Link_map.assign link_map ~vlink (Path.trivial hs) with
          | Ok () -> ()
          | Error msg -> raise (Networking_failed (None, msg)));
          incr intra_host
        end
        else begin
          let spec = Virtual_env.vlink venv vlink in
          let route () =
            router
              ~residual:(Link_map.residual link_map)
              ~latency_tables ~src:hs ~dst:hd
              ~bandwidth_mbps:spec.Hmn_vnet.Vlink.bandwidth_mbps
              ~latency_ms:spec.Hmn_vnet.Vlink.latency_ms ()
          in
          match
            (* Argument strings are only built when tracing is on; the
               span itself is one branch otherwise. *)
            if Trace.enabled () then
              Trace.with_span ~cat:"routing" "route-vlink"
                ~args:
                  [
                    ("vlink", string_of_int vlink);
                    ("src_host", string_of_int hs);
                    ("dst_host", string_of_int hd);
                  ]
                route
            else route ()
          with
          | None ->
            let detail =
              Mapper.Unroutable_vlink
                {
                  vlink;
                  src_host = hs;
                  dst_host = hd;
                  bandwidth_mbps = spec.Hmn_vnet.Vlink.bandwidth_mbps;
                  latency_ms = spec.Hmn_vnet.Vlink.latency_ms;
                }
            in
            raise
              (Networking_failed
                 ( Some detail,
                   Printf.sprintf
                     "no feasible path for virtual link %d (hosts %d -> %d, %.3f \
                      Mbps, <= %.1f ms)"
                     vlink hs hd spec.Hmn_vnet.Vlink.bandwidth_mbps
                     spec.Hmn_vnet.Vlink.latency_ms ))
          | Some path -> (
            match Link_map.assign link_map ~vlink path with
            | Ok () -> incr routed
            | Error msg -> raise (Networking_failed (None, msg)))
        end)
      (Hosting.sorted_vlinks problem);
    if Metrics.enabled () then begin
      Metrics.Counter.add (Metrics.counter "networking.vlinks_routed") !routed;
      Metrics.Counter.add (Metrics.counter "networking.intra_host") !intra_host
    end;
    Ok
      ( link_map,
        {
          routed = !routed;
          intra_host = !intra_host;
          expanded = !expanded;
          generated = !generated;
          precompute_s =
            Hmn_routing.Latency_table.precompute_seconds latency_tables;
          fast_path = Hmn_routing.Route_ctx.fast_path_hits ctx;
        } )
  with Networking_failed (detail, reason) ->
    Error
      (match detail with
      | Some detail -> Mapper.fail_detail ~detail ~stage:"networking" ~reason
      | None -> Mapper.fail ~stage:"networking" ~reason)
