module Dynarray = Hmn_dstruct.Dynarray

type 'e t = {
  n : int;
  (* adjacency.(u) holds (neighbor, edge id) pairs *)
  adjacency : (int * int) Dynarray.t array;
  sources : int Dynarray.t;
  targets : int Dynarray.t;
  labels : 'e Dynarray.t;
}

let create ~n () =
  if n < 0 then invalid_arg "Graph.create: negative node count";
  {
    n;
    adjacency = Array.init n (fun _ -> Dynarray.create ());
    sources = Dynarray.create ();
    targets = Dynarray.create ();
    labels = Dynarray.create ();
  }

let n_nodes g = g.n
let n_edges g = Dynarray.length g.labels

let check_node g u name =
  if u < 0 || u >= g.n then invalid_arg ("Graph." ^ name ^ ": node out of range")

let add_edge g u v lab =
  check_node g u "add_edge";
  check_node g v "add_edge";
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  let eid = n_edges g in
  Dynarray.push g.sources u;
  Dynarray.push g.targets v;
  Dynarray.push g.labels lab;
  Dynarray.push g.adjacency.(u) (v, eid);
  Dynarray.push g.adjacency.(v) (u, eid);
  eid

let check_edge g eid name =
  if eid < 0 || eid >= n_edges g then
    invalid_arg ("Graph." ^ name ^ ": edge out of range")

let endpoints g eid =
  check_edge g eid "endpoints";
  (Dynarray.get g.sources eid, Dynarray.get g.targets eid)

let label g eid =
  check_edge g eid "label";
  Dynarray.get g.labels eid

let iter_adj g u f =
  check_node g u "iter_adj";
  Dynarray.iter (fun (neighbor, eid) -> f ~neighbor ~eid) g.adjacency.(u)

let fold_adj g u ~init ~f =
  check_node g u "fold_adj";
  Dynarray.fold_left (fun acc (neighbor, eid) -> f acc ~neighbor ~eid) init g.adjacency.(u)

let adj_list g u =
  List.rev (fold_adj g u ~init:[] ~f:(fun acc ~neighbor ~eid -> (neighbor, eid) :: acc))

let find_edge g u v =
  check_node g u "find_edge";
  check_node g v "find_edge";
  let found = ref None in
  (try
     iter_adj g u (fun ~neighbor ~eid ->
         if neighbor = v then begin
           found := Some eid;
           raise Exit
         end)
   with Exit -> ());
  !found

let degree g u =
  check_node g u "degree";
  Dynarray.length g.adjacency.(u)

let iter_edges g f =
  for eid = 0 to n_edges g - 1 do
    f ~eid ~u:(Dynarray.get g.sources eid) ~v:(Dynarray.get g.targets eid)
      (Dynarray.get g.labels eid)
  done

let fold_edges g ~init ~f =
  let acc = ref init in
  iter_edges g (fun ~eid ~u ~v lab -> acc := f !acc ~eid ~u ~v lab);
  !acc

let map_labels g ~f =
  let g' = create ~n:g.n () in
  iter_edges g (fun ~eid ~u ~v lab -> ignore (add_edge g' u v (f ~eid lab)));
  g'
