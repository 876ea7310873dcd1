module Cluster = Hmn_testbed.Cluster
module Csr = Hmn_graph.Csr
module Metrics = Hmn_obs.Metrics

type table = {
  base : float array;
  offset : float;
  dst : int;
}

type t = {
  cluster : Cluster.t;
  tables : (int, table) Hashtbl.t;  (* per requested destination *)
  landmarks : (int, float array) Hashtbl.t;  (* per attachment switch *)
  mutable hits : int;
  mutable misses : int;
  mutable dijkstras : int;
  mutable derived : int;
  mutable precompute_s : float;
}

let create cluster =
  {
    cluster;
    tables = Hashtbl.create 64;
    landmarks = Hashtbl.create 16;
    hits = 0;
    misses = 0;
    dijkstras = 0;
    derived = 0;
    precompute_s = 0.;
  }

let get tab x = if x = tab.dst then 0. else tab.base.(x) +. tab.offset

let fill tab out =
  if Array.length out <> Array.length tab.base then
    invalid_arg "Latency_table.fill: buffer length mismatch";
  for x = 0 to Array.length out - 1 do
    out.(x) <- get tab x
  done

let dijkstra_base t src =
  t.dijkstras <- t.dijkstras + 1;
  Csr.dijkstra_from (Cluster.csr t.cluster)
    ~weight:(Cluster.link_latencies t.cluster)
    ~src

(* Landmark base table for a node shared by every leaf hanging off it,
   computed once. *)
let landmark_base t node =
  match Hashtbl.find_opt t.landmarks node with
  | Some base -> base
  | None ->
    let base = dijkstra_base t node in
    Hashtbl.add t.landmarks node base;
    base

let to_destination t ~dst =
  match Hashtbl.find_opt t.tables dst with
  | Some tab ->
    t.hits <- t.hits + 1;
    if Metrics.enabled () then
      Metrics.Counter.incr (Metrics.counter "latency_table.hits");
    tab
  | None ->
    t.misses <- t.misses + 1;
    let tab =
      match Csr.sole_neighbor (Cluster.csr t.cluster) dst with
      | Some (switch, eid) ->
        (* Leaf landmark: [dst]'s only cable goes to [switch], so every
           path to [dst] from elsewhere ends with that cable and
           d(x, dst) = d(x, switch) + w exactly. One Dijkstra per
           attachment switch covers all its leaves — on a fat-tree or
           Clos that is hosts-per-rack fewer Dijkstras and tables. *)
        t.derived <- t.derived + 1;
        if Metrics.enabled () then
          Metrics.Counter.incr (Metrics.counter "latency_table.derived");
        {
          base = landmark_base t switch;
          offset = (Cluster.link_latencies t.cluster).(eid);
          dst;
        }
      | None ->
        (* Interior destination (torus host, switch): plain per-
           destination Dijkstra on the CSR view. *)
        { base = dijkstra_base t dst; offset = 0.; dst }
    in
    if Metrics.enabled () then
      Metrics.Counter.incr (Metrics.counter "latency_table.misses");
    Hashtbl.add t.tables dst tab;
    tab

let precompute t =
  let t0 = Hmn_prelude.Clock.now_s () in
  let dijkstras_before = t.dijkstras in
  Array.iter
    (fun dst ->
      if not (Hashtbl.mem t.tables dst) then ignore (to_destination t ~dst))
    (Cluster.host_ids t.cluster);
  (* Wall time stays out of the metrics registry — the registry's
     contract is byte-identical aggregates for any jobs count, so
     timings travel the stage_seconds path instead. *)
  t.precompute_s <- t.precompute_s +. Hmn_prelude.Clock.elapsed_s t0;
  if Metrics.enabled () then
    Metrics.Counter.add
      (Metrics.counter "latency_table.dijkstras")
      (t.dijkstras - dijkstras_before)

let hits t = t.hits
let misses t = t.misses
let dijkstras t = t.dijkstras
let derived t = t.derived
let precompute_seconds t = t.precompute_s
