type t = {
  (* Label arena: struct-of-arrays, one row per generated label.
     [parent] is a label id (-1 at the origin), [node] the label's last
     node, [via] the edge id taken into [node] (-1 at the origin).
     [proj] caches acc_latency + ar(node) — the heap's second sort key,
     a pure function of the label, so the comparator never touches the
     latency table. [pnext] threads each node's Pareto set through the
     arena: the next label id in the set of the label's node, -1 at the
     end. *)
  mutable parent : int array;
  mutable node : int array;
  mutable via : int array;
  mutable hops : int array;
  mutable width : float array;
  mutable lat : float array;
  mutable proj : float array;
  mutable pnext : int array;
  mutable n_labels : int;
  (* Open set: a binary min-heap of label ids ordered by
     (width desc, proj asc, hops asc) — the selection rule. *)
  mutable heap : int array;
  mutable heap_size : int;
  (* Per-node Pareto set heads: [phead.(v)] is the first label id of
     [v]'s set, read only while [pstamp.(v) = search]. Bumping [search]
     empties every set at once. *)
  mutable phead : int array;
  mutable pstamp : int array;
  mutable search : int;
  mutable fast_path_hits : int;
}

let create () =
  {
    parent = [||];
    node = [||];
    via = [||];
    hops = [||];
    width = [||];
    lat = [||];
    proj = [||];
    pnext = [||];
    n_labels = 0;
    heap = [||];
    heap_size = 0;
    phead = [||];
    pstamp = [||];
    search = 0;
    fast_path_hits = 0;
  }

let fast_path_hits t = t.fast_path_hits

(* ---- label arena ---- *)

let grow_labels t =
  let cap = Array.length t.parent in
  let cap' = if cap = 0 then 256 else 2 * cap in
  let grow_int a = Array.append a (Array.make (cap' - cap) 0) in
  let grow_float a = Array.append a (Array.make (cap' - cap) 0.) in
  t.parent <- grow_int t.parent;
  t.node <- grow_int t.node;
  t.via <- grow_int t.via;
  t.hops <- grow_int t.hops;
  t.width <- grow_float t.width;
  t.lat <- grow_float t.lat;
  t.proj <- grow_float t.proj;
  t.pnext <- grow_int t.pnext

let add_label t ~parent ~node ~via ~hops ~width ~lat ~proj =
  if t.n_labels = Array.length t.parent then grow_labels t;
  let id = t.n_labels in
  t.parent.(id) <- parent;
  t.node.(id) <- node;
  t.via.(id) <- via;
  t.hops.(id) <- hops;
  t.width.(id) <- width;
  t.lat.(id) <- lat;
  t.proj.(id) <- proj;
  t.n_labels <- id + 1;
  id

(* Membership along a label's path: walk the parent chain. Paths in the
   fabrics this engine serves are a handful of hops, so the walk beats
   copying an n/8-byte bitset per generated label by a wide margin. *)
let rec on_path t label v =
  t.node.(label) = v || (t.parent.(label) >= 0 && on_path t t.parent.(label) v)

(* ---- open set (binary min-heap of label ids) ---- *)

(* Strict heap order, byte-compatible with the historical record
   comparator: widest bottleneck first, then optimistic total latency,
   then fewer hops. *)
let label_lt t i j =
  let c = Float.compare t.width.(j) t.width.(i) in
  if c <> 0 then c < 0
  else
    let c = Float.compare t.proj.(i) t.proj.(j) in
    if c <> 0 then c < 0 else t.hops.(i) < t.hops.(j)

let heap_push t id =
  let cap = Array.length t.heap in
  if t.heap_size = cap then
    t.heap <- Array.append t.heap (Array.make (if cap = 0 then 256 else cap) 0);
  t.heap.(t.heap_size) <- id;
  t.heap_size <- t.heap_size + 1;
  let i = ref (t.heap_size - 1) in
  let continue = ref (!i > 0) in
  while !continue do
    let parent = (!i - 1) / 2 in
    if label_lt t t.heap.(!i) t.heap.(parent) then begin
      let tmp = t.heap.(!i) in
      t.heap.(!i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      i := parent;
      continue := !i > 0
    end
    else continue := false
  done

(* -1 when empty (no option allocation on the hot path). *)
let heap_pop t =
  if t.heap_size = 0 then -1
  else begin
    let top = t.heap.(0) in
    t.heap_size <- t.heap_size - 1;
    if t.heap_size > 0 then begin
      t.heap.(0) <- t.heap.(t.heap_size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.heap_size && label_lt t t.heap.(l) t.heap.(!smallest) then
          smallest := l;
        if r < t.heap_size && label_lt t t.heap.(r) t.heap.(!smallest) then
          smallest := r;
        if !smallest <> !i then begin
          let tmp = t.heap.(!i) in
          t.heap.(!i) <- t.heap.(!smallest);
          t.heap.(!smallest) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    top
  end

(* ---- Pareto sets ---- *)

let rec dominated_from t i ~width ~lat =
  i >= 0
  && ((t.width.(i) >= width && t.lat.(i) <= lat)
     || dominated_from t t.pnext.(i) ~width ~lat)

let pareto_dominated t v ~width ~lat =
  t.pstamp.(v) = t.search && dominated_from t t.phead.(v) ~width ~lat

let pareto_record t id =
  let v = t.node.(id) in
  if t.pstamp.(v) <> t.search then begin
    t.pstamp.(v) <- t.search;
    t.pnext.(id) <- -1
  end
  else begin
    (* Unlink the entries the new label dominates; most insertions
       dominate nothing and leave the list untouched. *)
    let width = t.width.(id) and lat = t.lat.(id) in
    let prev = ref (-1) and i = ref t.phead.(v) in
    while !i >= 0 do
      let next = t.pnext.(!i) in
      if t.width.(!i) <= width && t.lat.(!i) >= lat then begin
        if !prev < 0 then t.phead.(v) <- next else t.pnext.(!prev) <- next
      end
      else prev := !i;
      i := next
    done;
    t.pnext.(id) <- t.phead.(v)
  end;
  t.phead.(v) <- id

(* ---- per-search reset ---- *)

let reset_search t ~n_nodes =
  t.n_labels <- 0;
  t.heap_size <- 0;
  t.search <- t.search + 1;
  (* Fresh stamps are 0, which no search after the bump can equal. *)
  if Array.length t.phead < n_nodes then begin
    t.phead <- Array.make n_nodes (-1);
    t.pstamp <- Array.make n_nodes 0
  end
