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

(* The two-level sharded Hosting as it was while stage A (racks as
   aggregate pseudo-hosts), stage B (each rack a flat subproblem) and
   the serial repair pass were three separate copies of the Hosting
   rules. Retained verbatim, with the flat [run] above as its
   fallback, as the oracle for the sharded equivalence property in
   test_core.ml: the same Ok/Error, the same host for every guest and
   bitwise-equal residuals. Do not "improve" this part either — its
   value is that it is the old stages. *)

module Domain_pool = Hmn_prelude.Domain_pool
module Metrics = Hmn_obs.Metrics
module Array_ext = Hmn_prelude.Array_ext

let index_of xs x =
  match Array_ext.find_index_opt (Int.equal x) xs with
  | Some i -> i
  | None -> invalid_arg "Hosting.index_of"

(* Stage A: pack guests onto racks. The flat pass replayed with every
   rack abstracted as one big host (aggregate residual resources, rack
   list re-sorted by descending aggregate CPU after each assignment).
   Aggregate feasibility does not imply per-host feasibility — stage B
   surfaces such stragglers as leftovers and the serial repair pass
   re-places them — but it holds for the vast majority of guests,
   which is what keeps the per-rack subproblems independent. Returns
   [None] when some guest fits no rack even in aggregate; the caller
   then falls back to the flat pass for the exact failure message. *)
let pack_racks (problem : Problem.t) sorted =
  let cluster = problem.Problem.cluster in
  let venv = problem.Problem.venv in
  let racks = Cluster.racks cluster in
  let n_racks = Array.length racks in
  (* Aggregate rack feasibility overestimates what per-host bin packing
     inside the rack can realise: first-fit strands about half a mean
     guest demand of slack on every host. Derate each rack by one mean
     demand per host so stage B receives loads it can actually pack;
     without this, ~8% of the guests of a well-utilised instance come
     back as leftovers and the repair pass cannot absorb them. *)
  let n_guests = Virtual_env.n_guests venv in
  let mean_demand =
    if n_guests = 0 then Resources.zero
    else Resources.scale (1. /. float_of_int n_guests) (Virtual_env.total_demand venv)
  in
  let residual =
    Array.map
      (fun members ->
        let cap =
          Array.fold_left
            (fun acc h -> Resources.add acc (Cluster.capacity cluster h))
            Resources.zero members
        in
        Resources.sub cap
          (Resources.scale (float_of_int (Array.length members)) mean_demand))
      racks
  in
  let order = Array.init n_racks Fun.id in
  let cpu r = residual.(r).Resources.mips in
  Array_ext.sort_by_desc cpu order;
  let by_cpu_desc a b = Float.compare (cpu b) (cpu a) in
  let rack_of_guest = Array.make (Virtual_env.n_guests venv) (-1) in
  let exception Pack_failed in
  (* Assigns [guest] to the rack at index [idx] of [order]; returns the
     rack's index after the re-sift. *)
  let assign_at guest idx =
    let rack = order.(idx) in
    rack_of_guest.(guest) <- rack;
    residual.(rack) <- Resources.sub residual.(rack) (Virtual_env.demand venv guest);
    Array_ext.resift by_cpu_desc order idx
  in
  let fits guest rack =
    Resources.fits_mem_stor
      ~demand:(Virtual_env.demand venv guest)
      ~avail:residual.(rack)
  in
  let first_fitting ?(from = 0) guest =
    let rec scan k =
      if k >= n_racks then raise Pack_failed
      else
        let idx = (from + k) mod n_racks in
        if fits guest order.(idx) then idx else scan (k + 1)
    in
    scan 0
  in
  let assign_first_fitting ?from guest = assign_at guest (first_fitting ?from guest) in
  let place_link vs vd =
    match (rack_of_guest.(vs) >= 0, rack_of_guest.(vd) >= 0) with
    | true, true -> ()
    | false, false ->
      let d =
        Resources.add (Virtual_env.demand venv vs) (Virtual_env.demand venv vd)
      in
      if Resources.fits_mem_stor ~demand:d ~avail:residual.(order.(0)) then begin
        let top = assign_at vs 0 in
        ignore (assign_at vd top)
      end
      else begin
        let cpu g = (Virtual_env.demand venv g).Resources.mips in
        let first, second = if cpu vs >= cpu vd then (vs, vd) else (vd, vs) in
        let pos = assign_first_fitting first in
        ignore (assign_first_fitting ~from:(pos + 1) second)
      end
    | true, false | false, true ->
      let placed, unplaced =
        if rack_of_guest.(vs) >= 0 then (vs, vd) else (vd, vs)
      in
      let rack = rack_of_guest.(placed) in
      if fits unplaced rack then ignore (assign_at unplaced (index_of order rack))
      else ignore (assign_first_fitting unplaced)
  in
  match
    Array.iter
      (fun eid ->
        let vs, vd = Virtual_env.endpoints venv eid in
        place_link vs vd)
      sorted;
    for guest = 0 to Virtual_env.n_guests venv - 1 do
      if rack_of_guest.(guest) < 0 then ignore (assign_first_fitting guest)
    done
  with
  | () -> Some rack_of_guest
  | exception Pack_failed -> None

(* Stage B: one rack as an independent flat subproblem. Pure — its
   state is rack-sized and private, the inputs read-only — so rack
   tasks fan out over the domain pool without changing the result.
   [members] are the rack's hosts, [guests] its guests (ascending) and
   [links] its intra-rack virtual links in the global descending-
   bandwidth order; [slot.(g)] is guest [g]'s index in [guests]. The
   state mirrors a [Placement] restricted to the rack: residuals by
   member position, each guest's member position by slot (-1 when
   unplaced), with the same feasibility test and arithmetic. Guests
   that fit no host of their rack come back as leftovers instead of
   failing the stage. *)
let solve_rack (problem : Problem.t) ~members ~guests ~links ~slot =
  let cluster = problem.Problem.cluster in
  let venv = problem.Problem.venv in
  let residual = Array.map (Cluster.capacity cluster) members in
  let host_of = Array.make (Array.length guests) (-1) in
  let given_up = Array.make (Array.length guests) false in
  let hosts = Array.init (Array.length members) Fun.id in
  let cpu m = residual.(m).Resources.mips in
  Array_ext.sort_by_desc cpu hosts;
  let by_cpu_desc a b = Float.compare (cpu b) (cpu a) in
  let leftovers = ref [] in
  let give_up guest =
    if not given_up.(slot.(guest)) then begin
      given_up.(slot.(guest)) <- true;
      leftovers := guest :: !leftovers
    end
  in
  let alive guest = not given_up.(slot.(guest)) in
  let placed guest = host_of.(slot.(guest)) >= 0 in
  let fits guest m =
    Resources.fits_mem_stor ~demand:(Virtual_env.demand venv guest) ~avail:residual.(m)
  in
  (* [Placement.assign] of an unplaced guest at index [idx] of
     [hosts]; returns the host's index after the re-sift. *)
  let assign_at guest idx =
    let m = hosts.(idx) in
    if not (fits guest m) then begin
      give_up guest;
      idx
    end
    else begin
      host_of.(slot.(guest)) <- m;
      residual.(m) <- Resources.sub residual.(m) (Virtual_env.demand venv guest);
      Array_ext.resift by_cpu_desc hosts idx
    end
  in
  let first_fitting ?(from = 0) guest =
    let n = Array.length hosts in
    let rec scan k =
      if k >= n then None
      else
        let idx = (from + k) mod n in
        if fits guest hosts.(idx) then Some idx else scan (k + 1)
    in
    scan 0
  in
  let ensure guest =
    if alive guest && not (placed guest) then
      match first_fitting guest with
      | Some idx -> ignore (assign_at guest idx)
      | None -> give_up guest
  in
  let place_link vs vd =
    match (host_of.(slot.(vs)), host_of.(slot.(vd))) with
    | hs, hd when hs >= 0 && hd >= 0 -> ()
    | -1, -1 when alive vs && alive vd ->
      let d =
        Resources.add (Virtual_env.demand venv vs) (Virtual_env.demand venv vd)
      in
      if Resources.fits_mem_stor ~demand:d ~avail:residual.(hosts.(0)) then begin
        let top = assign_at vs 0 in
        ignore (assign_at vd top)
      end
      else begin
        let cpu g = (Virtual_env.demand venv g).Resources.mips in
        let first, second = if cpu vs >= cpu vd then (vs, vd) else (vd, vs) in
        match first_fitting first with
        | None ->
          give_up first;
          ensure second
        | Some idx ->
          let pos = assign_at first idx in
          (match first_fitting ~from:(pos + 1) second with
          | Some j -> ignore (assign_at second j)
          | None -> give_up second)
      end
    | -1, -1 ->
      ensure vs;
      ensure vd
    | hs, hd ->
      let unplaced, m = if hs >= 0 then (vd, hs) else (vs, hd) in
      if alive unplaced then
        if fits unplaced m then ignore (assign_at unplaced (index_of hosts m))
        else ensure unplaced
  in
  Array.iter
    (fun eid ->
      let vs, vd = Virtual_env.endpoints venv eid in
      place_link vs vd)
    links;
  Array.iter ensure guests;
  let assignments = ref [] in
  for k = Array.length guests - 1 downto 0 do
    if host_of.(k) >= 0 then
      assignments := (guests.(k), members.(host_of.(k))) :: !assignments
  done;
  (* Ascending guest id — the canonical order the merge relies on. *)
  (!assignments, List.sort Int.compare !leftovers)

(* [buckets n ~key xs]: the elements of [xs] with [key x = r], in [xs]
   order, for every [r] in [0, n); elements with a negative key are
   dropped. *)
let buckets n ~key xs =
  let counts = Array.make n 0 in
  Array.iter (fun x -> let r = key x in if r >= 0 then counts.(r) <- counts.(r) + 1) xs;
  let out = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make n 0 in
  Array.iter
    (fun x ->
      let r = key x in
      if r >= 0 then begin
        out.(r).(fill.(r)) <- x;
        fill.(r) <- fill.(r) + 1
      end)
    xs;
  out

let run_sharded ?jobs (problem : Problem.t) =
  let cluster = problem.Problem.cluster in
  let racks = Cluster.racks cluster in
  let n_racks = Array.length racks in
  if n_racks <= 1 then run problem
  else begin
    let sorted = sorted_vlinks problem in
    match pack_racks problem sorted with
    | None -> run problem
    | Some rack_of_guest ->
      let venv = problem.Problem.venv in
      let guests =
        buckets n_racks
          ~key:(fun g -> rack_of_guest.(g))
          (Array.init (Virtual_env.n_guests venv) Fun.id)
      in
      let slot = Array.make (Virtual_env.n_guests venv) (-1) in
      Array.iter (Array.iteri (fun k g -> slot.(g) <- k)) guests;
      let links =
        buckets n_racks
          ~key:(fun eid ->
            let vs, vd = Virtual_env.endpoints venv eid in
            if rack_of_guest.(vs) = rack_of_guest.(vd) then rack_of_guest.(vs) else -1)
          sorted
      in
      let solve rack =
        solve_rack problem ~members:racks.(rack) ~guests:guests.(rack)
          ~links:links.(rack) ~slot
      in
      let rack_ids = Array.init n_racks Fun.id in
      let jobs =
        match jobs with Some j -> j | None -> Domain_pool.default_jobs ()
      in
      let solved =
        if jobs <= 1 then Array.map solve rack_ids
        else
          Domain_pool.with_pool ~jobs (fun pool ->
              Domain_pool.map_array pool solve rack_ids)
      in
      (* Canonical merge: racks in ascending id, assignments in
         ascending guest id — independent of how the pool interleaved
         the tasks, so the result is byte-identical for any [jobs]. *)
      let placement = Placement.create problem in
      let repair = ref [] in
      Array.iter
        (fun (assignments, leftovers) ->
          List.iter
            (fun (guest, host) ->
              match Placement.assign placement ~guest ~host with
              | Ok () -> ()
              | Error _ -> repair := guest :: !repair)
            assignments;
          List.iter (fun g -> repair := g :: !repair) leftovers)
        solved;
      let repair = List.sort_uniq Int.compare !repair in
      if Metrics.enabled () then begin
        Metrics.Counter.incr (Metrics.counter "hosting.sharded.runs");
        Metrics.Counter.add
          (Metrics.counter "hosting.sharded.repaired")
          (List.length repair)
      end;
      (* Serial repair pass over the merged placement for rack
         leftovers: ascending guest id, same descending-residual-CPU
         host discipline as the flat pass. Only here can the sharded
         mode still fail. *)
      let hosts = Array.copy (Cluster.host_ids cluster) in
      let cpu h = Placement.residual_cpu placement ~host:h in
      Array_ext.sort_by_desc cpu hosts;
      let by_cpu_desc a b = Float.compare (cpu b) (cpu a) in
      let rec place_all = function
        | [] -> Ok placement
        | guest :: rest -> (
          match
            Array_ext.find_index_opt
              (fun h -> Placement.fits placement ~guest ~host:h)
              hosts
          with
          | Some idx -> (
            match Placement.assign placement ~guest ~host:hosts.(idx) with
            | Ok () ->
              ignore (Array_ext.resift by_cpu_desc hosts idx);
              place_all rest
            | Error msg -> Error (Mapper.fail ~stage:"hosting" ~reason:msg))
          | None ->
            Error
              (Mapper.fail_detail ~detail:(Mapper.Unplaceable_guest { guest })
                 ~stage:"hosting"
                 ~reason:
                   (Printf.sprintf "no host can receive guest %d (repair)" guest)))
      in
      place_all repair
  end
