(* The flat Hosting stage as it was before its host list was kept in
   order by re-sifting the one host each assignment changes: this copy
   re-sorts the whole list after every assignment. Retained verbatim
   as the oracle for the equivalence property in test_core.ml: the
   same Ok/Error, the same failing guest, the same host for every
   guest. Do not "improve" this file — its value is that it is the old
   stage. *)

module Cluster = Hmn_testbed.Cluster
module Resources = Hmn_testbed.Resources
module Virtual_env = Hmn_vnet.Virtual_env
module Placement = Hmn_mapping.Placement
module Problem = Hmn_mapping.Problem
module Mapper = Hmn_core.Mapper

let sorted_vlinks (problem : Problem.t) =
  let venv = problem.Problem.venv in
  let links = Array.init (Virtual_env.n_vlinks venv) Fun.id in
  Hmn_prelude.Array_ext.sort_by_desc
    (fun eid -> (Virtual_env.vlink venv eid).Hmn_vnet.Vlink.bandwidth_mbps)
    links;
  links

let run (problem : Problem.t) =
  let cluster = problem.Problem.cluster in
  let venv = problem.Problem.venv in
  let placement = Placement.create problem in
  (* Host list in descending available-CPU order, re-sorted after every
     assignment (hosts are few; the paper re-sorts likewise). *)
  let hosts = Array.copy (Cluster.host_ids cluster) in
  let resort () =
    Hmn_prelude.Array_ext.sort_by_desc
      (fun h -> Placement.residual_cpu placement ~host:h)
      hosts
  in
  resort ();
  let exception Hosting_failed of int option * string in
  let assign guest host =
    match Placement.assign placement ~guest ~host with
    | Ok () -> resort ()
    | Error msg -> raise (Hosting_failed (Some guest, msg))
  in
  let first_fitting ?(from = 0) guest =
    let n = Array.length hosts in
    let rec scan k =
      if k >= n then None
      else begin
        let host = hosts.((from + k) mod n) in
        if Placement.fits placement ~guest ~host then Some ((from + k) mod n)
        else scan (k + 1)
      end
    in
    scan 0
  in
  let assign_first_fitting ?from guest =
    match first_fitting ?from guest with
    | Some idx ->
      let host = hosts.(idx) in
      assign guest host;
      host
    | None ->
      raise
        (Hosting_failed (Some guest, Printf.sprintf "no host can receive guest %d" guest))
  in
  let both_fit_first_host a b =
    let host = hosts.(0) in
    let d = Resources.add (Virtual_env.demand venv a) (Virtual_env.demand venv b) in
    Cluster.is_host cluster host
    && Resources.fits_mem_stor ~demand:d ~avail:(Placement.residual placement ~host)
  in
  let place_link vs vd =
    match (Placement.host_of placement ~guest:vs, Placement.host_of placement ~guest:vd)
    with
    | Some _, Some _ -> ()
    | None, None ->
      if both_fit_first_host vs vd then begin
        let host = hosts.(0) in
        assign vs host;
        assign vd host
      end
      else begin
        (* Most CPU-intensive guest first. *)
        let cpu g = (Virtual_env.demand venv g).Resources.mips in
        let first, second = if cpu vs >= cpu vd then (vs, vd) else (vd, vs) in
        let idx =
          match first_fitting first with
          | Some idx -> idx
          | None ->
            raise
              (Hosting_failed
                 (Some first, Printf.sprintf "no host can receive guest %d" first))
        in
        let host_first = hosts.(idx) in
        assign first host_first;
        (* The sort may have moved hosts; scan for the second guest
           starting just below the first guest's current position. *)
        let pos =
          match Hmn_prelude.Array_ext.find_index_opt (Int.equal host_first) hosts with
          | Some p -> p
          | None -> 0
        in
        ignore (assign_first_fitting ~from:(pos + 1) second)
      end
    | Some host, None | None, Some host ->
      let unplaced = if Placement.is_assigned placement ~guest:vs then vd else vs in
      if Placement.fits placement ~guest:unplaced ~host then assign unplaced host
      else ignore (assign_first_fitting unplaced)
  in
  try
    Array.iter
      (fun eid ->
        let vs, vd = Virtual_env.endpoints venv eid in
        place_link vs vd)
      (sorted_vlinks problem);
    (* Isolated guests (no incident virtual links). *)
    for guest = 0 to Virtual_env.n_guests venv - 1 do
      if not (Placement.is_assigned placement ~guest) then
        ignore (assign_first_fitting guest)
    done;
    Ok placement
  with Hosting_failed (guest, reason) ->
    Error
      (match guest with
      | Some guest ->
        Mapper.fail_detail ~detail:(Mapper.Unplaceable_guest { guest })
          ~stage:"hosting" ~reason
      | None -> Mapper.fail ~stage:"hosting" ~reason)
