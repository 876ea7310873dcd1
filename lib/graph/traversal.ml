let bfs_hops g ~src =
  let n = Graph.n_nodes g in
  let dist = Array.make n max_int in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_adj g u (fun ~neighbor ~eid:_ ->
        if dist.(neighbor) = max_int then begin
          dist.(neighbor) <- dist.(u) + 1;
          Queue.add neighbor queue
        end)
  done;
  dist

let components g =
  let n = Graph.n_nodes g in
  let comp = Array.make n (-1) in
  let next = ref 0 in
  for start = 0 to n - 1 do
    if comp.(start) = -1 then begin
      let id = !next in
      incr next;
      let queue = Queue.create () in
      comp.(start) <- id;
      Queue.add start queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        Graph.iter_adj g u (fun ~neighbor:v ~eid:_ ->
            if comp.(v) = -1 then begin
              comp.(v) <- id;
              Queue.add v queue
            end)
      done
    end
  done;
  comp

let n_components g =
  let comp = components g in
  Array.fold_left max (-1) comp + 1

let is_connected g = n_components g <= 1
