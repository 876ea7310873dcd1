module Rng = Hmn_rng.Rng

let require cond msg = if not cond then invalid_arg ("Generators." ^ msg)

let line n =
  require (n >= 1) "line: n >= 1 required";
  let g = Graph.create ~n () in
  for i = 0 to n - 2 do
    ignore (Graph.add_edge g i (i + 1) ())
  done;
  g

let ring n =
  require (n >= 3) "ring: n >= 3 required";
  let g = line n in
  ignore (Graph.add_edge g (n - 1) 0 ());
  g

let star n =
  require (n >= 1) "star: n >= 1 required";
  let g = Graph.create ~n () in
  for i = 1 to n - 1 do
    ignore (Graph.add_edge g 0 i ())
  done;
  g

let complete n =
  require (n >= 1) "complete: n >= 1 required";
  let g = Graph.create ~n () in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      ignore (Graph.add_edge g i j ())
    done
  done;
  g

let torus2d ~rows ~cols =
  require (rows >= 1 && cols >= 1) "torus2d: rows, cols >= 1 required";
  let id r c = (r * cols) + c in
  let g = Graph.create ~n:(rows * cols) () in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      (* Right neighbour: plain grid edge, plus wrap when the row is
         long enough for the wrap not to duplicate a grid edge. *)
      if c + 1 < cols then ignore (Graph.add_edge g (id r c) (id r (c + 1)) ());
      if c = cols - 1 && cols > 2 then ignore (Graph.add_edge g (id r c) (id r 0) ());
      if r + 1 < rows then ignore (Graph.add_edge g (id r c) (id (r + 1) c) ());
      if r = rows - 1 && rows > 2 then ignore (Graph.add_edge g (id r c) (id 0 c) ())
    done
  done;
  g

let random_tree ~n ~rng =
  require (n >= 1) "random_tree: n >= 1 required";
  let g = Graph.create ~n () in
  for i = 1 to n - 1 do
    ignore (Graph.add_edge g i (Rng.int rng ~bound:i) ())
  done;
  g

let expected_edges ~n ~density =
  let max_edges = n * (n - 1) / 2 in
  let target = int_of_float (Float.round (density *. float_of_int max_edges)) in
  min max_edges (max (n - 1) target)

let random_connected ~n ~density ~rng =
  require (n >= 1) "random_connected: n >= 1 required";
  require (density >= 0. && density <= 1.) "random_connected: density in [0,1] required";
  let g = Graph.create ~n () in
  let target = expected_edges ~n ~density in
  (* The pairs drawn so far, keyed [min * n + max] in an open-addressed
     table of at least twice [target] slots ([-1] marks a free slot):
     at most [target] pairs are ever added. *)
  let bits = ref 1 in
  while 1 lsl !bits < 2 * target do
    incr bits
  done;
  let slots = Array.make (1 lsl !bits) (-1) in
  let mask = (1 lsl !bits) - 1 and shift = Sys.int_size - !bits in
  let add u v =
    if u = v then false
    else begin
      let key = if u < v then (u * n) + v else (v * n) + u in
      let rec probe i =
        let s = slots.(i) in
        if s = key then false
        else if s >= 0 then probe ((i + 1) land mask)
        else begin
          slots.(i) <- key;
          ignore (Graph.add_edge g u v ());
          true
        end
      in
      (* multiplicative hashing: the key's top bits after one multiply *)
      probe ((key * 0x2545F4914F6CDD1D) lsr shift)
    end
  in
  (* Spanning tree over a shuffled order so the tree shape is not biased
     toward low node ids. *)
  let order = Array.init n (fun i -> i) in
  Hmn_rng.Sample.shuffle rng order;
  for i = 1 to n - 1 do
    ignore (add order.(i) order.(Rng.int rng ~bound:i))
  done;
  while Graph.n_edges g < target do
    ignore (add (Rng.int rng ~bound:n) (Rng.int rng ~bound:n))
  done;
  g

let barabasi_albert ~n ~m ~rng =
  require (m >= 1 && m < n) "barabasi_albert: 1 <= m < n required";
  let g = Graph.create ~n () in
  (* Repeated-node trick: the attachment pool holds each node once per
     incident edge end, so sampling from it is degree-proportional;
     one smoothing copy per node avoids zero-degree sinks. *)
  let pool = Hmn_dstruct.Dynarray.create () in
  for v = 0 to m - 1 do
    Hmn_dstruct.Dynarray.push pool v
  done;
  for v = m to n - 1 do
    let chosen = Hashtbl.create m in
    while Hashtbl.length chosen < m do
      let t =
        Hmn_dstruct.Dynarray.get pool
          (Rng.int rng ~bound:(Hmn_dstruct.Dynarray.length pool))
      in
      if t <> v then Hashtbl.replace chosen t ()
    done;
    Hashtbl.iter
      (fun t () ->
        ignore (Graph.add_edge g v t ());
        Hmn_dstruct.Dynarray.push pool t;
        Hmn_dstruct.Dynarray.push pool v)
      chosen
  done;
  g

let waxman ~n ~alpha ~beta ~rng =
  require (n >= 1) "waxman: n >= 1 required";
  require (alpha > 0. && alpha <= 1.) "waxman: alpha in (0,1] required";
  require (beta > 0. && beta <= 1.) "waxman: beta in (0,1] required";
  let xs = Array.init n (fun _ -> Rng.float rng) in
  let ys = Array.init n (fun _ -> Rng.float rng) in
  let g = Graph.create ~n () in
  let seen = Hashtbl.create (4 * n) in
  let key u v = if u < v then (u, v) else (v, u) in
  let add u v =
    let k = key u v in
    if u <> v && not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      ignore (Graph.add_edge g u v ())
    end
  in
  (* Connectivity backbone first. *)
  let order = Array.init n (fun i -> i) in
  Hmn_rng.Sample.shuffle rng order;
  for i = 1 to n - 1 do
    add order.(i) order.(Rng.int rng ~bound:i)
  done;
  let max_dist = sqrt 2. in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = sqrt (((xs.(u) -. xs.(v)) ** 2.) +. ((ys.(u) -. ys.(v)) ** 2.)) in
      if Rng.float rng < alpha *. exp (-.d /. (beta *. max_dist)) then add u v
    done
  done;
  g

(* ---- data-center fabrics ---- *)

type tier = Access | Aggregation | Core

type fabric = {
  graph : unit Graph.t;
  n_hosts : int;
  n_racks : int;
  rack_of_host : int array;
  switch_names : string array;
  edge_tiers : tier array;
}

let fat_tree ~k =
  require (k >= 2 && k mod 2 = 0) "fat_tree: k must be even, >= 2";
  let half = k / 2 in
  let n_hosts = k * half * half in
  let n_edge = k * half and n_agg = k * half and n_core = half * half in
  let edge_base = n_hosts in
  let agg_base = edge_base + n_edge in
  let core_base = agg_base + n_agg in
  let switch_names =
    Array.concat
      [
        Array.init n_edge (Printf.sprintf "edge%d");
        Array.init n_agg (Printf.sprintf "agg%d");
        Array.init n_core (Printf.sprintf "core%d");
      ]
  in
  let tiers = Hmn_dstruct.Dynarray.create () in
  let graph = Graph.create ~n:(n_hosts + n_edge + n_agg + n_core) () in
  let add u v tier =
    ignore (Graph.add_edge graph u v ());
    Hmn_dstruct.Dynarray.push tiers tier
  in
  (* One rack per edge switch: hosts [0 .. half-1] of pod 0's first
     edge switch are rack 0, and so on — host ids are contiguous per
     rack, so rack = host / half. *)
  let rack_of_host = Array.init n_hosts (fun h -> h / half) in
  for pod = 0 to k - 1 do
    for e = 0 to half - 1 do
      let edge_sw = edge_base + (pod * half) + e in
      (* Hosts under this edge switch. *)
      for h = 0 to half - 1 do
        let host = (pod * half * half) + (e * half) + h in
        add host edge_sw Access
      done;
      (* Full bipartite edge-agg mesh within the pod. *)
      for a = 0 to half - 1 do
        add edge_sw (agg_base + (pod * half) + a) Aggregation
      done
    done;
    (* Aggregation switch a of each pod connects to core switches
       a*half .. a*half + half - 1. *)
    for a = 0 to half - 1 do
      let agg_sw = agg_base + (pod * half) + a in
      for c = 0 to half - 1 do
        add agg_sw (core_base + (a * half) + c) Core
      done
    done
  done;
  {
    graph;
    n_hosts;
    n_racks = n_edge;
    rack_of_host;
    switch_names;
    edge_tiers = Hmn_dstruct.Dynarray.to_array tiers;
  }

let clos ~spines ~leafs ~hosts_per_leaf =
  require (spines >= 1) "clos: spines >= 1 required";
  require (leafs >= 1) "clos: leafs >= 1 required";
  require (hosts_per_leaf >= 1) "clos: hosts_per_leaf >= 1 required";
  let n_hosts = leafs * hosts_per_leaf in
  let leaf_base = n_hosts in
  let spine_base = leaf_base + leafs in
  let switch_names =
    Array.append
      (Array.init leafs (Printf.sprintf "leaf%d"))
      (Array.init spines (Printf.sprintf "spine%d"))
  in
  let tiers = Hmn_dstruct.Dynarray.create () in
  let graph = Graph.create ~n:(n_hosts + leafs + spines) () in
  let add u v tier =
    ignore (Graph.add_edge graph u v ());
    Hmn_dstruct.Dynarray.push tiers tier
  in
  let rack_of_host = Array.init n_hosts (fun h -> h / hosts_per_leaf) in
  for l = 0 to leafs - 1 do
    for h = 0 to hosts_per_leaf - 1 do
      add ((l * hosts_per_leaf) + h) (leaf_base + l) Access
    done;
    for s = 0 to spines - 1 do
      add (leaf_base + l) (spine_base + s) Aggregation
    done
  done;
  {
    graph;
    n_hosts;
    n_racks = leafs;
    rack_of_host;
    switch_names;
    edge_tiers = Hmn_dstruct.Dynarray.to_array tiers;
  }
