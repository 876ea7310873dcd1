module Virtual_env = Hmn_vnet.Virtual_env
module Placement = Hmn_mapping.Placement
module Problem = Hmn_mapping.Problem
module Link_map = Hmn_mapping.Link_map
module Mapping = Hmn_mapping.Mapping
module Path = Hmn_routing.Path

let default_dfs_steps = 20_000
let default_max_tries = 100_000

let dfs_route_all ?rng ?(max_steps = default_dfs_steps) placement =
  if not (Placement.all_assigned placement) then
    invalid_arg "Baselines.dfs_route_all: placement is incomplete";
  let problem = Placement.problem placement in
  let venv = problem.Problem.venv in
  let link_map = Link_map.create problem in
  let exception Routing_failed of Mapper.failure_detail option * string in
  try
    for vlink = 0 to Virtual_env.n_vlinks venv - 1 do
      let vs, vd = Virtual_env.endpoints venv vlink in
      let hs = Placement.host_of_exn placement ~guest:vs in
      let hd = Placement.host_of_exn placement ~guest:vd in
      let path =
        if hs = hd then Some (Path.trivial hs)
        else begin
          let spec = Virtual_env.vlink venv vlink in
          Hmn_routing.Dfs_route.route ?rng ~max_steps
            ~residual:(Link_map.residual link_map)
            ~src:hs ~dst:hd
            ~bandwidth_mbps:spec.Hmn_vnet.Vlink.bandwidth_mbps
            ~latency_ms:spec.Hmn_vnet.Vlink.latency_ms ()
        end
      in
      match path with
      | None ->
        let spec = Virtual_env.vlink venv vlink in
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
          (Routing_failed
             ( Some detail,
               Printf.sprintf "DFS found no path for virtual link %d" vlink ))
      | Some path -> (
        match Link_map.assign link_map ~vlink path with
        | Ok () -> ()
        | Error msg -> raise (Routing_failed (None, msg)))
    done;
    Ok link_map
  with Routing_failed (detail, reason) ->
    Error
      (match detail with
      | Some detail -> Mapper.fail_detail ~detail ~stage:"dfs-routing" ~reason
      | None -> Mapper.fail ~stage:"dfs-routing" ~reason)

(* Retry loop shared by the three baselines: [attempt] produces a
   mapping or a failure. The failure of the most recent failed try is
   kept in the outcome even when a later try succeeds — the paper
   explains the baselines' behaviour by *where* the retries die (R burns
   up to 100 000 tries), so that information must not be discarded.
   With metrics enabled, every failed try also lands in a per-stage
   counter and the consumed tries in a histogram. *)
let with_retries ~max_tries ~attempt =
  let module Metrics = Hmn_obs.Metrics in
  let start = Hmn_prelude.Clock.now_s () in
  let record_failure (f : Mapper.failure) =
    if Metrics.enabled () then
      Metrics.Counter.incr (Metrics.counter ("baseline.failures." ^ f.Mapper.stage))
  in
  let finish ~tries ~result ~last_failure =
    if Metrics.enabled () then begin
      Metrics.Counter.add (Metrics.counter "baseline.tries") tries;
      Metrics.Histogram.observe (Metrics.histogram "baseline.tries_per_run") tries
    end;
    {
      Mapper.result;
      elapsed_s = Hmn_prelude.Clock.elapsed_s start;
      stage_seconds = [];
      tries;
      last_failure;
    }
  in
  let rec go tries last_failure =
    if tries >= max_tries then begin
      let failure =
        Option.value last_failure
          ~default:(Mapper.fail ~stage:"retry" ~reason:"try budget exhausted")
      in
      finish ~tries ~result:(Error failure) ~last_failure:(Some failure)
    end
    else begin
      match attempt () with
      | Ok mapping -> finish ~tries:(tries + 1) ~result:(Ok mapping) ~last_failure
      | Error failure ->
        record_failure failure;
        go (tries + 1) (Some failure)
    end
  in
  go 0 None

let random ?(max_tries = default_max_tries) () =
  {
    Mapper.name = "R";
    description = "random placement + DFS routing, whole mapping retried";
    run =
      (fun ~rng problem ->
        with_retries ~max_tries ~attempt:(fun () ->
            match Random_place.run ~rng problem with
            | Error _ as e -> e
            | Ok placement -> (
              match dfs_route_all ~rng placement with
              | Error _ as e -> e
              | Ok link_map -> Ok (Mapping.make ~placement ~link_map))));
  }

let random_aprune ?(max_tries = default_max_tries) () =
  {
    Mapper.name = "RA";
    description = "random placement + A*Prune networking, whole mapping retried";
    run =
      (fun ~rng problem ->
        with_retries ~max_tries ~attempt:(fun () ->
            match Random_place.run ~rng problem with
            | Error _ as e -> e
            | Ok placement -> (
              match Networking.run placement with
              | Error _ as e -> e
              | Ok (link_map, _) -> Ok (Mapping.make ~placement ~link_map))));
  }

let hosting_search ?(max_tries = default_max_tries) () =
  {
    Mapper.name = "HS";
    description = "Hosting placement (kept fixed) + DFS routing, routing retried";
    run =
      (fun ~rng problem ->
        match Mapper.time (fun () -> Hosting.run problem) with
        | Error failure, elapsed_s ->
          {
            Mapper.result = Error failure;
            elapsed_s;
            stage_seconds = [ ("hosting", elapsed_s) ];
            tries = 1;
            last_failure = Some failure;
          }
        | Ok placement, hosting_s ->
          let outcome =
            with_retries ~max_tries ~attempt:(fun () ->
                match dfs_route_all ~rng placement with
                | Error _ as e -> e
                | Ok link_map -> Ok (Mapping.make ~placement ~link_map))
          in
          {
            outcome with
            Mapper.elapsed_s = outcome.Mapper.elapsed_s +. hosting_s;
            stage_seconds = [ ("hosting", hosting_s) ];
          });
  }
