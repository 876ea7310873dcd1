type t = {
  n_nodes : int;
  n_arcs : int;
  n_edges : int;
  offsets : int array;
  neighbors : int array;
  edge_ids : int array;
  (* The leaf-free view: the same slices with every arc to a degree-1
     neighbor left out, in the same order. Shares the full arrays when
     the graph has no such arc. *)
  lf_offsets : int array;
  lf_neighbors : int array;
  lf_edge_ids : int array;
}

let leaf_free ~n ~offsets ~neighbors ~edge_ids =
  let leaf v = offsets.(v + 1) - offsets.(v) = 1 in
  let lf_offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let kept = ref 0 in
    for k = offsets.(u) to offsets.(u + 1) - 1 do
      if not (leaf neighbors.(k)) then incr kept
    done;
    lf_offsets.(u + 1) <- lf_offsets.(u) + !kept
  done;
  let n_arcs = offsets.(n) and lf_arcs = lf_offsets.(n) in
  if lf_arcs = n_arcs then (offsets, neighbors, edge_ids)
  else begin
    let lf_neighbors = Array.make lf_arcs 0 and lf_edge_ids = Array.make lf_arcs 0 in
    let pos = ref 0 in
    for k = 0 to n_arcs - 1 do
      if not (leaf neighbors.(k)) then begin
        lf_neighbors.(!pos) <- neighbors.(k);
        lf_edge_ids.(!pos) <- edge_ids.(k);
        incr pos
      end
    done;
    (lf_offsets, lf_neighbors, lf_edge_ids)
  end

let of_graph g =
  let n = Graph.n_nodes g in
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + Graph.degree g u
  done;
  let n_arcs = offsets.(n) in
  let neighbors = Array.make n_arcs 0 in
  let edge_ids = Array.make n_arcs 0 in
  (* Fill each node's slice in Graph.iter_adj order, so algorithms
     ported from the adjacency structure visit successors in the exact
     same sequence (their tie-breaking — and hence their output — is
     byte-identical). *)
  let pos = ref 0 in
  for u = 0 to n - 1 do
    Graph.iter_adj g u (fun ~neighbor ~eid ->
        neighbors.(!pos) <- neighbor;
        edge_ids.(!pos) <- eid;
        incr pos)
  done;
  let lf_offsets, lf_neighbors, lf_edge_ids =
    leaf_free ~n ~offsets ~neighbors ~edge_ids
  in
  {
    n_nodes = n;
    n_arcs;
    n_edges = Graph.n_edges g;
    offsets;
    neighbors;
    edge_ids;
    lf_offsets;
    lf_neighbors;
    lf_edge_ids;
  }

let n_nodes t = t.n_nodes
let n_arcs t = t.n_arcs
let n_edges t = t.n_edges
let offsets t = t.offsets
let neighbors t = t.neighbors
let edge_ids t = t.edge_ids
let leaf_free_offsets t = t.lf_offsets
let leaf_free_neighbors t = t.lf_neighbors
let leaf_free_edge_ids t = t.lf_edge_ids

let degree t u =
  if u < 0 || u >= t.n_nodes then invalid_arg "Csr.degree: node out of range";
  t.offsets.(u + 1) - t.offsets.(u)

let iter_adj t u f =
  if u < 0 || u >= t.n_nodes then invalid_arg "Csr.iter_adj: node out of range";
  for k = t.offsets.(u) to t.offsets.(u + 1) - 1 do
    f ~neighbor:t.neighbors.(k) ~eid:t.edge_ids.(k)
  done

let adj_list t u =
  let acc = ref [] in
  for k = t.offsets.(u + 1) - 1 downto t.offsets.(u) do
    acc := (t.neighbors.(k), t.edge_ids.(k)) :: !acc
  done;
  !acc

let sole_neighbor t u =
  if degree t u = 1 then begin
    let k = t.offsets.(u) in
    Some (t.neighbors.(k), t.edge_ids.(k))
  end
  else None

let dijkstra_from t ~weight ~src =
  let n = t.n_nodes in
  if src < 0 || src >= n then invalid_arg "Csr.dijkstra_from: source out of range";
  if Array.length weight < t.n_edges then
    invalid_arg "Csr.dijkstra_from: weight array shorter than edge count";
  let dist = Array.make n infinity in
  let heap = Hmn_dstruct.Indexed_heap.create n in
  dist.(src) <- 0.;
  Hmn_dstruct.Indexed_heap.insert heap src 0.;
  let rec loop () =
    match Hmn_dstruct.Indexed_heap.pop_min heap with
    | None -> ()
    | Some (u, du) ->
      for k = t.offsets.(u) to t.offsets.(u + 1) - 1 do
        let w = weight.(t.edge_ids.(k)) in
        if w < 0. then invalid_arg "Csr.dijkstra_from: negative weight";
        let alt = du +. w in
        let v = t.neighbors.(k) in
        if alt < dist.(v) then begin
          dist.(v) <- alt;
          Hmn_dstruct.Indexed_heap.insert_or_decrease heap v alt
        end
      done;
      loop ()
  in
  loop ();
  dist
