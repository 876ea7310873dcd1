(* The arena A*Prune as it stood before the leaf-free slice and the
   dominance-before-membership test order, retained verbatim (minus
   metrics, plus the Pareto query it called on Route_ctx) as the oracle
   for the engine's bit-identity property on fabrics with leaf hosts:
   same paths, same expanded/generated statistics, label for label.
   Do not "improve" this file -- its value is that it is the old
   engine. *)

module Graph = Hmn_graph.Graph
module Csr = Hmn_graph.Csr
module Cluster = Hmn_testbed.Cluster
module Residual = Hmn_routing.Residual
module Latency_table = Hmn_routing.Latency_table
module Path = Hmn_routing.Path
module Route_ctx = Hmn_routing.Route_ctx

type stats = {
  expanded : int;
  generated : int;
}

let zero_stats = { expanded = 0; generated = 0 }

(* ---- tree fast path ---- *)

(* The unique continuation arc of a simple path that entered [cur] via
   [prev] ([-1] at the walk's start): a degree-1 start, or a degree-2
   interior node whose other arc does not return to [prev]. *)
let forced_step ~offsets ~neighbors ~edge_ids ~prev ~cur =
  let k0 = offsets.(cur) in
  match offsets.(cur + 1) - k0 with
  | 1 ->
    let nb = neighbors.(k0) in
    if nb = prev then None else Some (nb, edge_ids.(k0))
  | 2 when prev >= 0 ->
    let n0 = neighbors.(k0) and n1 = neighbors.(k0 + 1) in
    if n0 = prev && n1 <> prev then Some (n1, edge_ids.(k0 + 1))
    else if n1 = prev && n0 <> prev then Some (n0, edge_ids.(k0))
    else None
  | _ -> None

let rec distinct = function
  | [] -> true
  | x :: tl -> (not (List.mem x tl)) && distinct tl

(* Collapse sole-neighbor chains: when the forced walks from [src] and
   [dst] spell the whole route (a pure tree segment, or the same-rack
   src -> switch -> dst triangle of a fabric), the unique simple path
   needs no search — it is the route if it passes the search's own
   checks, or no route exists at all. [None] when the walks leave a
   choice open. *)
let forced_route ~offsets ~neighbors ~edge_ids ~n ~src ~dst =
  if
    offsets.(src + 1) - offsets.(src) <> 1
    && offsets.(dst + 1) - offsets.(dst) <> 1
  then None
  else begin
    (* rev_nodes leads with the terminal: for the walk from [src] that
       is reversed path order; for the walk from [dst] it already reads
       forward, terminal -> dst. *)
    let walk ~start ~target =
      let rec go prev cur rev_nodes rev_edges steps =
        if cur = target || steps >= n then (rev_nodes, rev_edges, cur)
        else
          match forced_step ~offsets ~neighbors ~edge_ids ~prev ~cur with
          | None -> (rev_nodes, rev_edges, cur)
          | Some (nb, eid) ->
            go cur nb (nb :: rev_nodes) (eid :: rev_edges) (steps + 1)
      in
      go (-1) start [ start ] [] 0
    in
    let s_nodes, s_edges, s_term = walk ~start:src ~target:dst in
    let path ~nodes ~edges =
      if distinct nodes then Some (Path.make ~nodes ~edges) else None
    in
    if s_term = dst then path ~nodes:(List.rev s_nodes) ~edges:(List.rev s_edges)
    else begin
      let d_nodes, d_edges, d_term = walk ~start:dst ~target:src in
      if d_term = src then path ~nodes:d_nodes ~edges:d_edges
      else if s_term = d_term then
        (* The walks meet: the terminal appears once, so every simple
           path runs prefix - terminal - suffix and is fully forced. *)
        path
          ~nodes:(List.rev_append (List.tl s_nodes) d_nodes)
          ~edges:(List.rev_append s_edges d_edges)
      else None
    end
  end

(* The search's acceptance test replayed along the forced path: the
   origin label needs ar(src) within the bound, and every hop must
   offer the bandwidth and keep acc + ar(v) within it, with acc summed
   left to right from 0. exactly as labels accumulate it. Checking the
   path's total latency alone would not do: when the bound equals that
   total, acc_i + ar(v_i) associates differently and can round above
   it, and the search would then find nothing. *)
let forced_feasible ~tab ~latencies ~avails ~bandwidth_mbps ~latency_ms
    (path : Path.t) =
  let nodes = path.Path.nodes and edges = path.Path.edges in
  let rec go i acc =
    i = Array.length edges
    || (let e = edges.(i) in
        let acc = acc +. latencies.(e) in
        avails.(e) >= bandwidth_mbps
        && acc +. Latency_table.get tab nodes.(i + 1) <= latency_ms
        && go (i + 1) acc)
  in
  Latency_table.get tab nodes.(0) <= latency_ms && go 0 0.

(* ---- Pareto dominance (Route_ctx's query before the engine inlined it) ---- *)

let rec dominated_from (t : Route_ctx.t) i ~width ~lat =
  i >= 0
  && ((t.width.(i) >= width && t.lat.(i) <= lat)
     || dominated_from t t.pnext.(i) ~width ~lat)

let pareto_dominated (t : Route_ctx.t) v ~width ~lat =
  t.pstamp.(v) = t.search && dominated_from t t.phead.(v) ~width ~lat

(* ---- the arena search ---- *)

let search ~ctx ~tab ~offsets ~neighbors ~edge_ids ~latencies ~avails
    ~prune_dominated ~n ~src ~dst ~bandwidth_mbps ~latency_ms =
  (* Destructured once: the hot loop reads the shared base array and
     scalar offset directly instead of paying a record access per
     lookup. [ar x] stays the exact [Latency_table.get] semantics —
     the [x = dst] case matters, labels ending at [dst] sit in the
     heap and must project with zero latency-to-go. *)
  let ar_base = tab.Latency_table.base and ar_offset = tab.Latency_table.offset in
  let ar x = if x = dst then 0. else ar_base.(x) +. ar_offset in
  Route_ctx.reset_search ctx ~n_nodes:n;
  let generated = ref 0 and expanded = ref 0 in
  let push id =
    incr generated;
    Route_ctx.heap_push ctx id
  in
  if ar src <= latency_ms then begin
    let id =
      Route_ctx.add_label ctx ~parent:(-1) ~node:src ~via:(-1) ~hops:1
        ~width:infinity ~lat:0. ~proj:(0. +. ar src)
    in
    (* Label recording must track the flag: the unpruned reference
       mode would otherwise start with a seeded Pareto table. *)
    if prune_dominated then Route_ctx.pareto_record ctx id;
    push id
  end;
  let expand p =
    (* CSR slice walk: same arc order as [Graph.iter_adj] (the view
       preserves adjacency insertion order), but three flat array
       reads per arc instead of a closure call plus a link-record
       fetch — this loop dominates Networking wall time at scale.
       Membership is an O(hops) parent-chain walk instead of the
       historical per-label bitset copy: paths on these fabrics are a
       handful of hops, so the walk is cheaper than duplicating n/8
       bytes per generated label. *)
    let u = ctx.Route_ctx.node.(p) in
    let p_lat = ctx.Route_ctx.lat.(p)
    and p_width = ctx.Route_ctx.width.(p)
    and p_hops = ctx.Route_ctx.hops.(p) in
    for k = offsets.(u) to offsets.(u + 1) - 1 do
      let neighbor = neighbors.(k) in
      (* Dead end: a degree-1 neighbor's only arc leads back to [u],
         which is on the label's path, so its label could never be
         expanded into a child nor be the goal. Skipping it is one
         offsets subtraction and saves a label per leaf host on
         Clos and fat-tree fabrics. *)
      if neighbor <> dst && offsets.(neighbor + 1) - offsets.(neighbor) = 1 then
        ()
      else if not (Route_ctx.on_path ctx p neighbor) then begin
        let eid = edge_ids.(k) in
        let avail = avails.(eid) in
        let acc_latency = p_lat +. latencies.(eid) in
        (* Prune: not enough residual bandwidth on this hop, or the
           latency budget cannot be met even via the cheapest
           completion. *)
        if avail < bandwidth_mbps then ()
        else begin
          let proj = acc_latency +. ar neighbor in
          if proj > latency_ms then ()
          else begin
            let width = Float.min p_width avail in
            if
              prune_dominated
              && pareto_dominated ctx neighbor ~width ~lat:acc_latency
            then ()
            else begin
              let id =
                Route_ctx.add_label ctx ~parent:p ~node:neighbor ~via:eid
                  ~hops:(p_hops + 1) ~width ~lat:acc_latency ~proj
              in
              if prune_dominated then Route_ctx.pareto_record ctx id;
              push id
            end
          end
        end
      end
    done
  in
  let result = ref (-1) in
  let rec loop () =
    let p = Route_ctx.heap_pop ctx in
    if p >= 0 then begin
      incr expanded;
      if ctx.Route_ctx.node.(p) = dst then result := p
      else begin
        expand p;
        loop ()
      end
    end
  in
  loop ();
  if !result < 0 then None
  else begin
    (* Only the winning path is materialised: walk the parent chain
       once, consing forward node/edge lists for [Path.make]. *)
    let rec reconstruct i nodes edges =
      let nodes = ctx.Route_ctx.node.(i) :: nodes in
      let parent = ctx.Route_ctx.parent.(i) in
      if parent < 0 then (nodes, edges)
      else reconstruct parent nodes (ctx.Route_ctx.via.(i) :: edges)
    in
    let nodes, edges = reconstruct !result [] [] in
    Some (Path.make ~nodes ~edges, { expanded = !expanded; generated = !generated })
  end

let route ?(prune_dominated = true) ?ctx ~residual ~latency_tables ~src ~dst
    ~bandwidth_mbps ~latency_ms () =
  let cluster = Residual.cluster residual in
  let g = Cluster.graph cluster in
  let n = Graph.n_nodes g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Reference_arena_astar.route: endpoint out of range";
  if not (bandwidth_mbps > 0.) then
    invalid_arg "Reference_arena_astar.route: bandwidth must be positive";
  if latency_ms < 0. then invalid_arg "Reference_arena_astar.route: negative latency bound";
  if src = dst then Some (Path.trivial src, zero_stats)
  else begin
    let ctx =
      match ctx with Some c -> c | None -> Route_ctx.create ()
    in
    let csr = Cluster.csr cluster in
    let offsets = Csr.offsets csr
    and neighbors = Csr.neighbors csr
    and edge_ids = Csr.edge_ids csr in
    let latencies = Cluster.link_latencies cluster in
    let avails = Residual.availabilities residual in
    let tab = Latency_table.to_destination latency_tables ~dst in
    match forced_route ~offsets ~neighbors ~edge_ids ~n ~src ~dst with
    | Some path ->
      ctx.Route_ctx.fast_path_hits <- ctx.Route_ctx.fast_path_hits + 1;
      if forced_feasible ~tab ~latencies ~avails ~bandwidth_mbps ~latency_ms path
      then Some (path, zero_stats)
      else None
    | None ->
      search ~ctx ~tab ~offsets ~neighbors ~edge_ids ~latencies ~avails
        ~prune_dominated ~n ~src ~dst ~bandwidth_mbps ~latency_ms
  end
