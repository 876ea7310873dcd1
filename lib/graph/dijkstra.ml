type result = {
  dist : float array;
  prev_node : int array;
  prev_edge : int array;
}

let run g ~weight ~src =
  let n = Graph.n_nodes g in
  if src < 0 || src >= n then invalid_arg "Dijkstra.run: source out of range";
  let dist = Array.make n infinity in
  let prev_node = Array.make n (-1) in
  let prev_edge = Array.make n (-1) in
  let heap = Hmn_dstruct.Indexed_heap.create n in
  dist.(src) <- 0.;
  Hmn_dstruct.Indexed_heap.insert heap src 0.;
  let rec loop () =
    match Hmn_dstruct.Indexed_heap.pop_min heap with
    | None -> ()
    | Some (u, du) ->
      Graph.iter_adj g u (fun ~neighbor ~eid ->
          let w = weight eid in
          if w < 0. then invalid_arg "Dijkstra.run: negative weight";
          let alt = du +. w in
          if alt < dist.(neighbor) then begin
            dist.(neighbor) <- alt;
            prev_node.(neighbor) <- u;
            prev_edge.(neighbor) <- eid;
            Hmn_dstruct.Indexed_heap.insert_or_decrease heap neighbor alt
          end);
      loop ()
  in
  loop ();
  { dist; prev_node; prev_edge }

let distances_to g ~weight ~dst = (run g ~weight ~src:dst).dist

let path_to res v =
  if res.dist.(v) = infinity then None
  else begin
    let rec build v nodes edges =
      if res.prev_node.(v) = -1 then (v :: nodes, edges)
      else build res.prev_node.(v) (v :: nodes) (res.prev_edge.(v) :: edges)
    in
    Some (build v [] [])
  end
