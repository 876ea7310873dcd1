module Cluster = Hmn_testbed.Cluster
module Resources = Hmn_testbed.Resources
module Virtual_env = Hmn_vnet.Virtual_env
module Placement = Hmn_mapping.Placement
module Problem = Hmn_mapping.Problem
module Domain_pool = Hmn_prelude.Domain_pool
module Metrics = Hmn_obs.Metrics
module Array_ext = Hmn_prelude.Array_ext

let index_of xs x =
  match Array_ext.find_index_opt (Int.equal x) xs with
  | Some i -> i
  | None -> invalid_arg "Hosting.index_of"

let sorted_vlinks (problem : Problem.t) =
  let venv = problem.Problem.venv in
  let links = Array.init (Virtual_env.n_vlinks venv) Fun.id in
  Array_ext.sort_by_desc
    (fun eid -> (Virtual_env.vlink venv eid).Hmn_vnet.Vlink.bandwidth_mbps)
    links;
  links

(* One Hosting pass (paper §4.1) over an array of bin residuals, where
   a bin is a host or, for stage A, a whole rack. [links] are processed
   in order, then [guests] are swept in order for the guests no link
   placed; [slot.(g)] is guest [g]'s index in [guests]. The bin list is
   kept in descending residual-CPU order (ties in bin order) by
   re-sifting the one bin each assignment changes, as the paper
   re-sorts its host list. [residual] is updated in place, and the pass
   assigns a guest only to a bin it fits, so every assignment it makes
   can be replayed. A guest that fits no bin is given up instead of
   failing the pass; later links treat it as absent. *)
type pass = {
  bin_of : int array;  (* by slot: the guest's bin, negative if given up *)
  made : int array;  (* slots in the order assigned; complete if none given up *)
  given_up : int list;  (* guests, in the order given up *)
}

let pass venv ~residual ~links ~guests ~slot =
  let n = Array.length residual in
  let order = Array.init n Fun.id in
  let cpu b = residual.(b).Resources.mips in
  Array_ext.sort_by_desc cpu order;
  let by_cpu_desc a b = Float.compare (cpu b) (cpu a) in
  (* -1 while pending, -2 once given up *)
  let bin_of = Array.make (Array.length guests) (-1) in
  let made = Array.make (Array.length guests) 0 and n_made = ref 0 in
  let given_up = ref [] in
  let demand = Virtual_env.demand venv in
  let fits_in avail guest = Resources.fits_mem_stor ~demand:(demand guest) ~avail in
  (* Assigns [guest] to the bin at index [idx] of [order]; returns the
     bin's index after the re-sift. *)
  let assign_at guest idx =
    let b = order.(idx) in
    bin_of.(slot.(guest)) <- b;
    residual.(b) <- Resources.sub residual.(b) (demand guest);
    made.(!n_made) <- slot.(guest);
    incr n_made;
    Array_ext.resift by_cpu_desc order idx
  in
  (* The first bin that fits [guest], scanning down the list from index
     [from] and wrapping around its end. *)
  let assign_first_fitting ?(from = 0) guest =
    let rec scan k =
      if k >= n then begin
        bin_of.(slot.(guest)) <- -2;
        given_up := guest :: !given_up;
        None
      end
      else
        let idx = (from + k) mod n in
        if fits_in residual.(order.(idx)) guest then Some (assign_at guest idx)
        else scan (k + 1)
    in
    scan 0
  in
  let pending guest = bin_of.(slot.(guest)) = -1 in
  let place_link vs vd =
    match (pending vs, pending vd) with
    | false, false -> ()
    | true, true ->
      (* Both on the top bin when the first fits and the second still
         fits after it; else the most CPU-intensive guest first, the
         other on the next bin down that fits it. *)
      if n > 0
         && fits_in residual.(order.(0)) vs
         && fits_in (Resources.sub residual.(order.(0)) (demand vs)) vd
      then ignore (assign_at vd (assign_at vs 0))
      else begin
        let cpu g = (demand g).Resources.mips in
        let first, second = if cpu vs >= cpu vd then (vs, vd) else (vd, vs) in
        match assign_first_fitting first with
        | Some pos -> ignore (assign_first_fitting ~from:(pos + 1) second)
        | None -> ignore (assign_first_fitting second)
      end
    | true, false | false, true ->
      let unplaced, other = if pending vs then (vs, vd) else (vd, vs) in
      let b = bin_of.(slot.(other)) in
      if b >= 0 && fits_in residual.(b) unplaced then
        ignore (assign_at unplaced (index_of order b))
      else ignore (assign_first_fitting unplaced)
  in
  Array.iter
    (fun eid ->
      let vs, vd = Virtual_env.endpoints venv eid in
      place_link vs vd)
    links;
  Array.iter (fun g -> if pending g then ignore (assign_first_fitting g)) guests;
  { bin_of; made; given_up = List.rev !given_up }

(* A host pass's result: the first guest given up fails the stage;
   otherwise its assignments are replayed into [placement] in the order
   made, so each host's residual is the pass's own chain of
   [Resources.sub] calls, bit for bit. *)
let commit ?(suffix = "") placement ~hosts ~guests p =
  match p.given_up with
  | guest :: _ ->
    Error
      (Mapper.fail_detail ~detail:(Mapper.Unplaceable_guest { guest }) ~stage:"hosting"
         ~reason:(Printf.sprintf "no host can receive guest %d%s" guest suffix))
  | [] ->
    Array.iter
      (fun k ->
        Result.get_ok
          (Placement.assign placement ~guest:guests.(k) ~host:hosts.(p.bin_of.(k))))
      p.made;
    Ok placement

let run (problem : Problem.t) =
  let cluster = problem.Problem.cluster in
  let hosts = Cluster.host_ids cluster in
  let guests = Array.init (Virtual_env.n_guests problem.Problem.venv) Fun.id in
  commit (Placement.create problem) ~hosts ~guests
    (pass problem.Problem.venv
       ~residual:(Array.map (Cluster.capacity cluster) hosts)
       ~links:(sorted_vlinks problem) ~guests ~slot:guests)

(* ---- Hierarchical (sharded) hosting ---- *)

(* Stage A: pack guests onto racks. The pass with every rack one bin
   (aggregate residual resources). Aggregate feasibility does not imply
   per-host feasibility — stage B surfaces such stragglers and the
   repair pass re-places them — but it holds for the vast majority of
   guests, which is what keeps the per-rack subproblems independent.
   Returns [None] when some guest fits no rack even in aggregate; the
   caller then falls back to the flat pass for the exact failure
   message. *)
let pack_racks (problem : Problem.t) sorted =
  let cluster = problem.Problem.cluster in
  let venv = problem.Problem.venv in
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
      (Cluster.racks cluster)
  in
  let guests = Array.init n_guests Fun.id in
  let p = pass venv ~residual ~links:sorted ~guests ~slot:guests in
  if p.given_up = [] then Some p.bin_of else None

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
      let n_guests = Virtual_env.n_guests venv in
      let guests =
        buckets n_racks ~key:(fun g -> rack_of_guest.(g)) (Array.init n_guests Fun.id)
      in
      let slot = Array.make n_guests (-1) in
      Array.iter (Array.iteri (fun k g -> slot.(g) <- k)) guests;
      let links =
        buckets n_racks
          ~key:(fun eid ->
            let vs, vd = Virtual_env.endpoints venv eid in
            if rack_of_guest.(vs) = rack_of_guest.(vd) then rack_of_guest.(vs) else -1)
          sorted
      in
      (* Stage B: the pass over one rack's hosts, its guests (ascending)
         and its intra-rack links. Pure — its state is rack-sized and
         private, the inputs read-only — so rack tasks fan out over the
         domain pool without changing the result. The guests it gives
         up go to repair. *)
      let solve rack =
        pass venv
          ~residual:(Array.map (Cluster.capacity cluster) racks.(rack))
          ~links:links.(rack) ~guests:guests.(rack) ~slot
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
      (* Canonical merge: racks in ascending id, guests in ascending id
         — independent of how the pool interleaved the tasks, so the
         result is byte-identical for any [jobs]. The merge's order of
         subtraction differs from the rack pass's, so a guest its
         merged host can no longer hold goes to repair too. *)
      let placement = Placement.create problem in
      let repair = ref [] in
      Array.iteri
        (fun rack p ->
          Array.iteri
            (fun k guest ->
              let b = p.bin_of.(k) in
              if
                b < 0
                || Result.is_error
                     (Placement.assign placement ~guest ~host:racks.(rack).(b))
              then repair := guest :: !repair)
            guests.(rack))
        solved;
      let repair = Array.of_list (List.sort Int.compare !repair) in
      if Metrics.enabled () then begin
        Metrics.Counter.incr (Metrics.counter "hosting.sharded.runs");
        Metrics.Counter.add
          (Metrics.counter "hosting.sharded.repaired")
          (Array.length repair)
      end;
      (* Repair: the pass over every host with the merged residuals and
         no links, for the repair guests in ascending id. Only here can
         the sharded mode still fail. *)
      let hosts = Cluster.host_ids cluster in
      let slot = Array.make n_guests (-1) in
      Array.iteri (fun k g -> slot.(g) <- k) repair;
      commit ~suffix:" (repair)" placement ~hosts ~guests:repair
        (pass venv
           ~residual:(Array.map (fun host -> Placement.residual placement ~host) hosts)
           ~links:[||] ~guests:repair ~slot)
  end
