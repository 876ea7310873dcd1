(* Built on the first adjacency query from the edge arrays; never
   mutated after, so graphs may share one. *)
type adjacency = {
  offsets : int array;
  neighbors : int array;
  edge_ids : int array;
}

type 'e t = {
  n : int;
  mutable m : int;
  (* Edge [eid] joins [sources.(eid)] and [targets.(eid)]; the three
     arrays grow by doubling and hold [m] edges. *)
  mutable sources : int array;
  mutable targets : int array;
  mutable labels : 'e array;
  (* [None] until queried, and again after an [add_edge]. *)
  mutable adjacency : adjacency option;
}

let create ~n () =
  if n < 0 then invalid_arg "Graph.create: negative node count";
  { n; m = 0; sources = [||]; targets = [||]; labels = [||]; adjacency = None }

let n_nodes g = g.n
let n_edges g = g.m

let check_node g u name =
  if u < 0 || u >= g.n then invalid_arg ("Graph." ^ name ^ ": node out of range")

let grow a ~size filler =
  let b = Array.make (max 8 (2 * size)) filler in
  Array.blit a 0 b 0 size;
  b

let add_edge g u v lab =
  check_node g u "add_edge";
  check_node g v "add_edge";
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  let eid = g.m in
  if eid = Array.length g.sources then begin
    g.sources <- grow g.sources ~size:eid 0;
    g.targets <- grow g.targets ~size:eid 0;
    g.labels <- grow g.labels ~size:eid lab
  end;
  g.sources.(eid) <- u;
  g.targets.(eid) <- v;
  g.labels.(eid) <- lab;
  g.m <- eid + 1;
  g.adjacency <- None;
  eid

(* Counting sort of the arcs by node, both arcs of each edge in edge-id
   order: each node's slice lists its edges in insertion order. *)
let build g =
  let n = g.n and m = g.m and sources = g.sources and targets = g.targets in
  let offsets = Array.make (n + 1) 0 in
  for eid = 0 to m - 1 do
    offsets.(sources.(eid) + 1) <- offsets.(sources.(eid) + 1) + 1;
    offsets.(targets.(eid) + 1) <- offsets.(targets.(eid) + 1) + 1
  done;
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u + 1) + offsets.(u)
  done;
  let next = Array.sub offsets 0 n in
  let neighbors = Array.make (2 * m) 0 and edge_ids = Array.make (2 * m) 0 in
  for eid = 0 to m - 1 do
    let u = sources.(eid) and v = targets.(eid) in
    let k = next.(u) in
    neighbors.(k) <- v;
    edge_ids.(k) <- eid;
    next.(u) <- k + 1;
    let k = next.(v) in
    neighbors.(k) <- u;
    edge_ids.(k) <- eid;
    next.(v) <- k + 1
  done;
  { offsets; neighbors; edge_ids }

let adjacency g =
  match g.adjacency with
  | Some a -> a
  | None ->
    let a = build g in
    g.adjacency <- Some a;
    a

let adjacency_arrays g =
  let a = adjacency g in
  (a.offsets, a.neighbors, a.edge_ids)

let check_edge g eid name =
  if eid < 0 || eid >= g.m then invalid_arg ("Graph." ^ name ^ ": edge out of range")

let endpoints g eid =
  check_edge g eid "endpoints";
  (g.sources.(eid), g.targets.(eid))

let label g eid =
  check_edge g eid "label";
  g.labels.(eid)

let iter_adj g u f =
  check_node g u "iter_adj";
  let a = adjacency g in
  for k = a.offsets.(u) to a.offsets.(u + 1) - 1 do
    f ~neighbor:a.neighbors.(k) ~eid:a.edge_ids.(k)
  done

let fold_adj g u ~init ~f =
  check_node g u "fold_adj";
  let a = adjacency g in
  let acc = ref init in
  for k = a.offsets.(u) to a.offsets.(u + 1) - 1 do
    acc := f !acc ~neighbor:a.neighbors.(k) ~eid:a.edge_ids.(k)
  done;
  !acc

let adj_list g u =
  List.rev (fold_adj g u ~init:[] ~f:(fun acc ~neighbor ~eid -> (neighbor, eid) :: acc))

let find_edge g u v =
  check_node g u "find_edge";
  check_node g v "find_edge";
  let a = adjacency g in
  let rec scan k stop =
    if k = stop then None
    else if a.neighbors.(k) = v then Some a.edge_ids.(k)
    else scan (k + 1) stop
  in
  scan a.offsets.(u) a.offsets.(u + 1)

let degree g u =
  check_node g u "degree";
  let a = adjacency g in
  a.offsets.(u + 1) - a.offsets.(u)

let iter_edges g f =
  for eid = 0 to g.m - 1 do
    f ~eid ~u:g.sources.(eid) ~v:g.targets.(eid) g.labels.(eid)
  done

let fold_edges g ~init ~f =
  let acc = ref init in
  iter_edges g (fun ~eid ~u ~v lab -> acc := f !acc ~eid ~u ~v lab);
  !acc

let map_labels g ~f =
  let m = g.m in
  let labels = Array.init m (fun eid -> f ~eid g.labels.(eid)) in
  {
    n = g.n;
    m;
    sources = Array.sub g.sources 0 m;
    targets = Array.sub g.targets 0 m;
    labels;
    adjacency = Some (adjacency g);
  }
