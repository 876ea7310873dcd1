module Cluster = Hmn_testbed.Cluster
module Csr = Hmn_graph.Csr
module Dynarray = Hmn_dstruct.Dynarray

type t = {
  (* The CSR view the pools were last sized against. Physical identity
     is the staleness test: defragmentation rebuilds residual clusters
     (fresh Cluster.t, fresh Csr.t), so a pointer mismatch means every
     pooled array may describe a graph that no longer exists. *)
  mutable bound : Csr.t option;
  (* Label arena: struct-of-arrays, one row per generated label.
     [parent] is a label id (-1 at the origin), [node] the label's last
     node, [via] the edge id taken into [node] (-1 at the origin).
     [proj] caches acc_latency + ar(node) — the heap's second sort key,
     a pure function of the label, so the comparator never touches the
     latency table. *)
  mutable parent : int array;
  mutable node : int array;
  mutable via : int array;
  mutable hops : int array;
  mutable width : float array;
  mutable lat : float array;
  mutable proj : float array;
  mutable n_labels : int;
  (* Open set: a binary min-heap of label ids ordered by
     (width desc, proj asc, hops asc) — the selection rule. *)
  mutable heap : int array;
  mutable heap_size : int;
  (* Per-node Pareto sets, pooled: pairs are flattened as
     [width, lat, width, lat, ...] in a per-node dynarray that is
     created on a node's first label ever and then reused; [touched]
     remembers which nodes must be wiped between searches. *)
  mutable pareto : float Dynarray.t option array;
  touched : int Dynarray.t;
  mutable fast_path_hits : int;
}

let create () =
  {
    bound = None;
    parent = [||];
    node = [||];
    via = [||];
    hops = [||];
    width = [||];
    lat = [||];
    proj = [||];
    n_labels = 0;
    heap = [||];
    heap_size = 0;
    pareto = [||];
    touched = Dynarray.create ();
    fast_path_hits = 0;
  }

let fast_path_hits t = t.fast_path_hits

let bind t cluster =
  let csr = Cluster.csr cluster in
  match t.bound with
  | Some c when c == csr -> ()
  | _ ->
    t.bound <- Some csr;
    (* Pool sizes are per-node: a different graph means different node
       ids, so the pooled Pareto arrays are dropped wholesale rather
       than risking a stale set surviving under a recycled id. *)
    t.pareto <- Array.make (Csr.n_nodes csr) None;
    Dynarray.reset t.touched

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
  t.proj <- grow_float t.proj

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
let on_path t label v =
  let rec go i = t.node.(i) = v || (t.parent.(i) >= 0 && go t.parent.(i)) in
  go label

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

(* ---- Pareto pools ---- *)

let pareto_of t v =
  match t.pareto.(v) with
  | Some d -> d
  | None ->
    let d = Dynarray.create () in
    t.pareto.(v) <- Some d;
    d

let pareto_dominated t v ~width ~lat =
  match t.pareto.(v) with
  | None -> false
  | Some d ->
    let n = Dynarray.length d in
    let rec scan i =
      i < n
      && ((Dynarray.get d i >= width && Dynarray.get d (i + 1) <= lat)
         || scan (i + 2))
    in
    scan 0

let pareto_record t v ~width ~lat =
  let d = pareto_of t v in
  let n = Dynarray.length d in
  if n = 0 then Dynarray.push t.touched v
  else begin
    (* Drop entries the new label dominates, compacting in place; most
       insertions dominate nothing and leave the array untouched. *)
    let keep = ref 0 in
    for i = 0 to (n / 2) - 1 do
      let b = Dynarray.get d (2 * i) and l = Dynarray.get d ((2 * i) + 1) in
      if not (b <= width && l >= lat) then begin
        if !keep <> i then begin
          Dynarray.set d (2 * !keep) b;
          Dynarray.set d ((2 * !keep) + 1) l
        end;
        incr keep
      end
    done;
    if 2 * !keep <> n then Dynarray.truncate d (2 * !keep)
  end;
  Dynarray.push d width;
  Dynarray.push d lat

(* ---- per-search reset ---- *)

let reset_search t =
  t.n_labels <- 0;
  t.heap_size <- 0;
  Dynarray.iter
    (fun v ->
      match t.pareto.(v) with Some d -> Dynarray.reset d | None -> ())
    t.touched;
  Dynarray.reset t.touched
