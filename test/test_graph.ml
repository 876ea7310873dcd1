(* Tests for hmn_graph: the graph core, traversals, shortest paths
   (cross-checked against a local Floyd–Warshall), generators,
   betweenness, DOT export and the CSR view. *)

module Graph = Hmn_graph.Graph
module Traversal = Hmn_graph.Traversal
module Dijkstra = Hmn_graph.Dijkstra
module Gen = Hmn_graph.Generators

(* A small weighted test graph:
     0 --1.0-- 1 --1.0-- 2
     |                   |
     +------- 5.0 -------+
   plus isolated node 3. *)
let diamond () =
  let g = Graph.create ~n:4 () in
  let e01 = Graph.add_edge g 0 1 1.0 in
  let e12 = Graph.add_edge g 1 2 1.0 in
  let e02 = Graph.add_edge g 0 2 5.0 in
  (g, e01, e12, e02)

let weight g eid = Graph.label g eid

(* ---- Graph core ---- *)

let test_graph_basic () =
  let g, e01, _, _ = diamond () in
  Alcotest.(check int) "nodes" 4 (Graph.n_nodes g);
  Alcotest.(check int) "edges" 3 (Graph.n_edges g);
  Alcotest.(check (pair int int)) "endpoints" (0, 1) (Graph.endpoints g e01);
  Alcotest.(check (float 0.)) "label" 1.0 (Graph.label g e01);
  Alcotest.(check int) "degree 0" 2 (Graph.degree g 0);
  Alcotest.(check int) "degree isolated" 0 (Graph.degree g 3)

let test_graph_errors () =
  let g, _, _, _ = diamond () in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> ignore (Graph.add_edge g 1 1 0.));
  Alcotest.check_raises "node range"
    (Invalid_argument "Graph.add_edge: node out of range") (fun () ->
      ignore (Graph.add_edge g 0 4 0.))

let test_graph_adjacency () =
  let g, e01, _, e02 = diamond () in
  Alcotest.(check (list (pair int int))) "adj of 0" [ (1, e01); (2, e02) ]
    (Graph.adj_list g 0);
  Alcotest.(check (option int)) "find_edge" (Some e01) (Graph.find_edge g 0 1);
  Alcotest.(check (option int)) "find_edge sym" (Some e01) (Graph.find_edge g 1 0);
  Alcotest.(check (option int)) "find_edge none" None (Graph.find_edge g 0 3);
  let total = Graph.fold_edges g ~init:0. ~f:(fun acc ~eid:_ ~u:_ ~v:_ l -> acc +. l) in
  Alcotest.(check (float 0.)) "fold_edges" 7. total

let test_graph_map_copy () =
  let g, _, _, _ = diamond () in
  let doubled = Graph.map_labels g ~f:(fun ~eid:_ l -> 2. *. l) in
  Alcotest.(check (float 0.)) "mapped label" 2. (Graph.label doubled 0);
  Alcotest.(check int) "same structure" 3 (Graph.n_edges doubled);
  Alcotest.(check (list (pair int int))) "same adjacency" (Graph.adj_list g 0)
    (Graph.adj_list doubled 0);
  Alcotest.(check (float 0.)) "source untouched" 1. (Graph.label g 0)

(* ---- Traversal ---- *)

let test_bfs () =
  let g, _, _, _ = diamond () in
  let hops = Traversal.bfs_hops g ~src:0 in
  Alcotest.(check int) "hop to 2" 1 hops.(2);
  Alcotest.(check int) "unreachable" max_int hops.(3)

let test_components () =
  let g, _, _, _ = diamond () in
  let comp = Traversal.components g in
  Alcotest.(check int) "two components" 2 (Traversal.n_components g);
  Alcotest.(check bool) "0 and 2 together" true (comp.(0) = comp.(2));
  Alcotest.(check bool) "3 separate" true (comp.(3) <> comp.(0));
  Alcotest.(check bool) "not connected" false (Traversal.is_connected g);
  Alcotest.(check bool) "ring connected" true (Traversal.is_connected (Gen.ring 5))

(* ---- Dijkstra ---- *)

let test_dijkstra_diamond () =
  let g, _, _, _ = diamond () in
  let res = Dijkstra.run g ~weight:(weight g) ~src:0 in
  Alcotest.(check (float 1e-9)) "direct vs 2-hop" 2. res.Dijkstra.dist.(2);
  Alcotest.(check (float 1e-9)) "self" 0. res.Dijkstra.dist.(0);
  Alcotest.(check bool) "unreachable" true (res.Dijkstra.dist.(3) = infinity);
  match Dijkstra.path_to res 2 with
  | Some (nodes, edges) ->
    Alcotest.(check (list int)) "path nodes" [ 0; 1; 2 ] nodes;
    Alcotest.(check int) "path edges" 2 (List.length edges)
  | None -> Alcotest.fail "expected a path"

let test_dijkstra_negative_weight () =
  let g = Graph.create ~n:2 () in
  ignore (Graph.add_edge g 0 1 (-1.));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Dijkstra.run: negative weight") (fun () ->
      ignore (Dijkstra.run g ~weight:(weight g) ~src:0))

let test_distances_to_undirected () =
  let g, _, _, _ = diamond () in
  let d = Dijkstra.distances_to g ~weight:(weight g) ~dst:2 in
  Alcotest.(check (float 1e-9)) "0 to 2" 2. d.(0);
  Alcotest.(check (float 1e-9)) "dst itself" 0. d.(2)

(* ---- Floyd–Warshall vs Dijkstra ---- *)

let random_weighted_graph ~n ~rng =
  let shape = Gen.random_connected ~n ~density:0.3 ~rng in
  Graph.map_labels shape ~f:(fun ~eid:_ () -> 0.1 +. Hmn_rng.Rng.float rng)

(* All-pairs shortest paths by Floyd–Warshall: O(n^3), an oracle for
   Dijkstra only. *)
let floyd_warshall g ~weight =
  let n = Graph.n_nodes g in
  let dist =
    Array.init n (fun i -> Array.init n (fun j -> if i = j then 0. else infinity))
  in
  Graph.iter_edges g (fun ~eid ~u ~v _ ->
      let w = weight eid in
      if w < dist.(u).(v) then dist.(u).(v) <- w;
      if w < dist.(v).(u) then dist.(v).(u) <- w);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      let dik = dist.(i).(k) in
      if dik < infinity then
        for j = 0 to n - 1 do
          let alt = dik +. dist.(k).(j) in
          if alt < dist.(i).(j) then dist.(i).(j) <- alt
        done
    done
  done;
  dist

let test_fw_matches_dijkstra () =
  let rng = Hmn_rng.Rng.create 7 in
  for _ = 1 to 5 do
    let g = random_weighted_graph ~n:12 ~rng in
    let fw = floyd_warshall g ~weight:(weight g) in
    for src = 0 to 11 do
      let d = Dijkstra.run g ~weight:(weight g) ~src in
      for v = 0 to 11 do
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "dist %d->%d" src v)
          fw.(src).(v) d.Dijkstra.dist.(v)
      done
    done
  done

(* ---- generators ---- *)

let test_gen_line_ring_star_complete () =
  Alcotest.(check int) "line edges" 4 (Graph.n_edges (Gen.line 5));
  Alcotest.(check int) "ring edges" 5 (Graph.n_edges (Gen.ring 5));
  Alcotest.(check int) "star edges" 4 (Graph.n_edges (Gen.star 5));
  Alcotest.(check int) "complete edges" 10 (Graph.n_edges (Gen.complete 5));
  Alcotest.(check int) "star center degree" 4 (Graph.degree (Gen.star 5) 0);
  Alcotest.check_raises "ring too small"
    (Invalid_argument "Generators.ring: n >= 3 required") (fun () ->
      ignore (Gen.ring 2))

let test_gen_torus () =
  let g = Gen.torus2d ~rows:5 ~cols:8 in
  Alcotest.(check int) "nodes" 40 (Graph.n_nodes g);
  (* A full torus with both dims > 2 has 2*r*c edges, degree 4 each. *)
  Alcotest.(check int) "edges" 80 (Graph.n_edges g);
  for v = 0 to 39 do
    Alcotest.(check int) (Printf.sprintf "degree of %d" v) 4 (Graph.degree g v)
  done;
  Alcotest.(check bool) "connected" true (Traversal.is_connected g)

let test_gen_torus_small_dims () =
  (* Size-2 dimensions must not create parallel edges. *)
  let g = Gen.torus2d ~rows:2 ~cols:2 in
  Alcotest.(check int) "2x2 edges" 4 (Graph.n_edges g);
  let g = Gen.torus2d ~rows:1 ~cols:4 in
  Alcotest.(check int) "1x4 is a ring" 4 (Graph.n_edges g);
  let g = Gen.torus2d ~rows:1 ~cols:2 in
  Alcotest.(check int) "1x2 single edge" 1 (Graph.n_edges g)

let test_gen_random_connected () =
  let rng = Hmn_rng.Rng.create 5 in
  let g = Gen.random_connected ~n:50 ~density:0.1 ~rng in
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check int) "edge target" (Gen.expected_edges ~n:50 ~density:0.1)
    (Graph.n_edges g);
  (* Density below the tree threshold still yields a connected tree. *)
  let sparse = Gen.random_connected ~n:50 ~density:0. ~rng in
  Alcotest.(check int) "spanning tree" 49 (Graph.n_edges sparse);
  Alcotest.(check bool) "tree connected" true (Traversal.is_connected sparse)

(* Pinned digests of two generated edge lists: the paper's largest
   low-level instance (2000 guests at density 0.01) and the 40000-guest
   size of the 1600-host benchmark fabric (three links per guest). Any
   change to the generator's draws, its duplicate test or its edge
   order changes them. *)
let edge_list_digest g =
  let b = Buffer.create (16 * Graph.n_edges g) in
  Graph.iter_edges g (fun ~eid:_ ~u ~v () ->
      Buffer.add_string b (string_of_int u);
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int v);
      Buffer.add_char b '\n');
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_gen_random_connected_pins () =
  let digest ~n ~density ~seed =
    edge_list_digest (Gen.random_connected ~n ~density ~rng:(Hmn_rng.Rng.create seed))
  in
  Alcotest.(check string)
    "2000 guests, density 0.01, seed 1" "0a9fc0b4713862b993bcd6c8cf2e8d11"
    (digest ~n:2000 ~density:0.01 ~seed:1);
  Alcotest.(check string)
    "40000 guests, density 3/39999, seed 3" "f8d16c20e5fd7e57d0d66188053a49a8"
    (digest ~n:40000 ~density:(3. /. 39999.) ~seed:3)

let test_gen_expected_edges () =
  (* The paper's extreme: 2000 guests at density 0.01 gives 19990. *)
  Alcotest.(check int) "paper scale" 19990 (Gen.expected_edges ~n:2000 ~density:0.01);
  Alcotest.(check int) "clamped at clique" 10 (Gen.expected_edges ~n:5 ~density:5.)

let test_gen_random_tree () =
  let rng = Hmn_rng.Rng.create 3 in
  let g = Gen.random_tree ~n:30 ~rng in
  Alcotest.(check int) "n-1 edges" 29 (Graph.n_edges g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g)

let test_gen_barabasi_albert () =
  let rng = Hmn_rng.Rng.create 13 in
  let g = Gen.barabasi_albert ~n:100 ~m:2 ~rng in
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  (* (n - m) joining nodes each add m edges. *)
  Alcotest.(check int) "edge count" ((100 - 2) * 2) (Graph.n_edges g);
  (* Preferential attachment concentrates degree: some hub should beat
     the 2m average clearly. *)
  let max_deg = ref 0 in
  for v = 0 to 99 do
    max_deg := max !max_deg (Graph.degree g v)
  done;
  Alcotest.(check bool) "has a hub" true (!max_deg > 8);
  Alcotest.check_raises "m >= n rejected"
    (Invalid_argument "Generators.barabasi_albert: 1 <= m < n required") (fun () ->
      ignore (Gen.barabasi_albert ~n:3 ~m:3 ~rng))

let test_gen_waxman () =
  let rng = Hmn_rng.Rng.create 17 in
  let g = Gen.waxman ~n:80 ~alpha:0.4 ~beta:0.3 ~rng in
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check bool) "at least a spanning tree" true (Graph.n_edges g >= 79);
  (* Higher alpha gives denser graphs. *)
  let sparse = Gen.waxman ~n:80 ~alpha:0.05 ~beta:0.1 ~rng:(Hmn_rng.Rng.create 17) in
  let dense = Gen.waxman ~n:80 ~alpha:1.0 ~beta:1.0 ~rng:(Hmn_rng.Rng.create 17) in
  Alcotest.(check bool) "alpha monotone" true
    (Graph.n_edges dense > Graph.n_edges sparse);
  Alcotest.check_raises "alpha out of range"
    (Invalid_argument "Generators.waxman: alpha in (0,1] required") (fun () ->
      ignore (Gen.waxman ~n:5 ~alpha:0. ~beta:0.5 ~rng))

(* ---- Betweenness ---- *)

let test_betweenness_path_graph () =
  (* Path 0-1-2-3: the middle edge carries all 0,1 x 2,3 pairs. For
     edge (1,2): pairs crossing it = {0,1}x{2,3} both directions = 8. *)
  let g = Gen.line 4 in
  let eb = Hmn_graph.Betweenness.edges g in
  Alcotest.(check (float 1e-9)) "end edge" 6. eb.(0);
  Alcotest.(check (float 1e-9)) "middle edge" 8. eb.(1);
  let nb = Hmn_graph.Betweenness.nodes g in
  (* Node 1 lies on shortest paths 0-2, 0-3, and their reverses = 4. *)
  Alcotest.(check (float 1e-9)) "inner node" 4. nb.(1);
  Alcotest.(check (float 1e-9)) "leaf node" 0. nb.(0)

let test_betweenness_star () =
  (* Star: the hub lies on every leaf-to-leaf shortest path. *)
  let g = Gen.star 5 in
  let nb = Hmn_graph.Betweenness.nodes g in
  Alcotest.(check (float 1e-9)) "hub" (4. *. 3.) nb.(0);
  for leaf = 1 to 4 do
    Alcotest.(check (float 1e-9)) "leaf" 0. nb.(leaf)
  done

let prop_betweenness_matches_brute_force =
  (* Oracle: enumerate all shortest paths pair-by-pair on small graphs
     by counting via BFS DAG sigma products. *)
  QCheck.Test.make ~name:"edge betweenness matches brute force on small graphs"
    ~count:30 QCheck.small_nat
    (fun seed ->
      let rng = Hmn_rng.Rng.create (seed + 11000) in
      let g = Gen.random_connected ~n:7 ~density:0.4 ~rng in
      let expected = Array.make (Graph.n_edges g) 0. in
      let n = Graph.n_nodes g in
      (* For every ordered pair (s, t): count shortest s-t paths and,
         per edge, shortest paths through it, by DFS enumeration. *)
      let hops = Array.init n (fun s -> Traversal.bfs_hops g ~src:s) in
      for s = 0 to n - 1 do
        for t = 0 to n - 1 do
          if s <> t then begin
            let total = ref 0 and per_edge = Hashtbl.create 8 in
            let rec walk v used =
              if v = t then begin
                incr total;
                List.iter
                  (fun e ->
                    Hashtbl.replace per_edge e
                      (1 + Option.value (Hashtbl.find_opt per_edge e) ~default:0))
                  used
              end
              else
                Graph.iter_adj g v (fun ~neighbor ~eid ->
                    if hops.(s).(neighbor) = hops.(s).(v) + 1
                       && hops.(neighbor).(t) = hops.(v).(t) - 1
                    then walk neighbor (eid :: used))
            in
            walk s [];
            if !total > 0 then
              Hashtbl.iter
                (fun e c ->
                  expected.(e) <-
                    expected.(e) +. (float_of_int c /. float_of_int !total))
                per_edge
          end
        done
      done;
      let got = Hmn_graph.Betweenness.edges g in
      let ok = ref true in
      Array.iteri
        (fun e v ->
          if not (Hmn_prelude.Float_ext.approx ~eps:1e-6 v got.(e)) then ok := false)
        expected;
      !ok)

(* ---- DOT ---- *)

let test_dot_output () =
  let g, _, _, _ = diamond () in
  let expected =
    [ "graph test {"; "  \"0\";"; "  \"1\";"; "  \"2\";"; "  \"3\";";
      "  \"0\" -- \"1\";"; "  \"1\" -- \"2\";"; "  \"0\" -- \"2\";"; "}"; "" ]
  in
  Alcotest.(check string) "whole graph" (String.concat "\n" expected)
    (Hmn_graph.Dot.to_dot ~name:"test" g)

(* ---- properties ---- *)

let seed_gen = QCheck.small_nat

let prop_random_connected_always_connected =
  QCheck.Test.make ~name:"random_connected is connected at every density" ~count:100
    QCheck.(triple seed_gen (int_range 1 60) (float_range 0. 1.))
    (fun (seed, n, density) ->
      let rng = Hmn_rng.Rng.create seed in
      Traversal.is_connected (Gen.random_connected ~n ~density ~rng))

let prop_dijkstra_triangle_inequality =
  QCheck.Test.make ~name:"Dijkstra distances obey the triangle inequality" ~count:50
    seed_gen
    (fun seed ->
      let rng = Hmn_rng.Rng.create seed in
      let g = random_weighted_graph ~n:15 ~rng in
      let d0 = (Dijkstra.run g ~weight:(weight g) ~src:0).Dijkstra.dist in
      let ok = ref true in
      Graph.iter_edges g (fun ~eid ~u ~v w ->
          ignore eid;
          if d0.(v) > d0.(u) +. w +. 1e-9 then ok := false;
          if d0.(u) > d0.(v) +. w +. 1e-9 then ok := false);
      !ok)

let prop_bfs_hops_vs_dijkstra_unit =
  QCheck.Test.make ~name:"BFS hops equal unit-weight Dijkstra" ~count:50 seed_gen
    (fun seed ->
      let rng = Hmn_rng.Rng.create seed in
      let g = Gen.random_connected ~n:20 ~density:0.15 ~rng in
      let hops = Traversal.bfs_hops g ~src:0 in
      let d = (Dijkstra.run g ~weight:(fun _ -> 1.) ~src:0).Dijkstra.dist in
      let ok = ref true in
      for v = 0 to 19 do
        let h = if hops.(v) = max_int then infinity else float_of_int hops.(v) in
        if not (Hmn_prelude.Float_ext.approx h d.(v)) then ok := false
      done;
      !ok)

(* ---- CSR view & fabric properties ---- *)

module Csr = Hmn_graph.Csr

let prop_csr_matches_adjacency =
  QCheck.Test.make
    ~name:"CSR slices replay Graph adjacency: order, edge ids, degrees" ~count:100
    QCheck.(triple seed_gen (int_range 1 40) (float_range 0. 1.))
    (fun (seed, n, density) ->
      let rng = Hmn_rng.Rng.create seed in
      let g = Gen.random_connected ~n ~density ~rng in
      let csr = Csr.of_graph g in
      let ok =
        ref
          (Csr.n_nodes csr = n
          && Csr.n_edges csr = Graph.n_edges g
          && Csr.n_arcs csr = 2 * Graph.n_edges g)
      in
      for u = 0 to n - 1 do
        if Csr.adj_list csr u <> Graph.adj_list g u then ok := false;
        if Csr.degree csr u <> Graph.degree g u then ok := false;
        (match (Csr.sole_neighbor csr u, Graph.adj_list g u) with
        | Some (nb, eid), [ (nb', eid') ] ->
          if (nb, eid) <> (nb', eid') then ok := false
        | None, [ _ ] | Some _, ([] | _ :: _ :: _) -> ok := false
        | None, _ -> ())
      done;
      !ok)

(* The leaf-free view on graphs with and without leaves: random sparse
   graphs, random trees and Clos fabrics (whose hosts are all leaves). *)
let prop_csr_leaf_free_slices =
  QCheck.Test.make
    ~name:"CSR leaf-free slices are the full slices minus degree-1 neighbors, in order"
    ~count:100
    QCheck.(triple seed_gen (int_range 1 30) (int_range 0 2))
    (fun (seed, n, shape) ->
      let rng = Hmn_rng.Rng.create (seed + 300) in
      let g =
        match shape with
        | 0 -> Gen.random_connected ~n ~density:0.1 ~rng
        | 1 -> Gen.random_tree ~n ~rng
        | _ ->
          (Gen.clos ~spines:(1 + (n mod 4)) ~leafs:(1 + (n mod 5))
             ~hosts_per_leaf:(1 + (seed mod 6)))
            .Gen.graph
      in
      let n = Graph.n_nodes g in
      let csr = Csr.of_graph g in
      let offsets = Csr.leaf_free_offsets csr
      and neighbors = Csr.leaf_free_neighbors csr
      and edge_ids = Csr.leaf_free_edge_ids csr in
      Array.length offsets = n + 1
      && offsets.(0) = 0
      && Array.length neighbors = offsets.(n)
      && Array.length edge_ids = offsets.(n)
      && List.for_all
           (fun u ->
             let slice =
               List.init
                 (offsets.(u + 1) - offsets.(u))
                 (fun i -> (neighbors.(offsets.(u) + i), edge_ids.(offsets.(u) + i)))
             in
             slice
             = List.filter (fun (nb, _) -> Graph.degree g nb <> 1) (Graph.adj_list g u))
           (List.init n Fun.id))

let prop_csr_dijkstra_bit_identical =
  QCheck.Test.make
    ~name:"CSR Dijkstra is bit-identical to the adjacency Dijkstra" ~count:50
    seed_gen
    (fun seed ->
      let rng = Hmn_rng.Rng.create (seed + 200) in
      let g = random_weighted_graph ~n:15 ~rng in
      let w = Array.init (Graph.n_edges g) (Graph.label g) in
      let csr = Csr.of_graph g in
      Csr.dijkstra_from csr ~weight:w ~src:0
      = (Dijkstra.run g ~weight:(weight g) ~src:0).Dijkstra.dist)

(* An oracle for Graph that never reads Graph's adjacency: a node's
   arcs are rebuilt from the edge list alone, as the independent
   validator rebuilds them. The graph gets parallel edges (small node
   counts make them common) and adds interleaved with every adjacency
   query, so each query may meet an adjacency built before or after
   the latest add. *)
let oracle_adj edges x =
  List.concat
    (List.mapi
       (fun eid (u, v) ->
         if u = x then [ (v, eid) ] else if v = x then [ (u, eid) ] else [])
       edges)

let oracle_find edges u v =
  List.find_map Fun.id
    (List.mapi
       (fun eid (a, b) ->
         if (a = u && b = v) || (a = v && b = u) then Some eid else None)
       edges)

(* [edges] is the edge list in id order; labels are [100 * eid + bump]. *)
let matches_oracle g edges ~bump =
  let n = Graph.n_nodes g in
  Graph.n_edges g = List.length edges
  && List.for_all
       (fun u ->
         Graph.adj_list g u = oracle_adj edges u
         && Graph.degree g u = List.length (oracle_adj edges u))
       (List.init n Fun.id)
  && List.for_all
       (fun eid ->
         Graph.endpoints g eid = List.nth edges eid
         && Graph.label g eid = (100 * eid) + bump)
       (List.init (List.length edges) Fun.id)

let csr_matches_oracle g edges =
  let n = Graph.n_nodes g in
  let csr = Csr.of_graph g in
  let offsets = Csr.offsets csr and neighbors = Csr.neighbors csr
  and edge_ids = Csr.edge_ids csr in
  Csr.n_nodes csr = n
  && Csr.n_edges csr = List.length edges
  && Csr.n_arcs csr = 2 * List.length edges
  && Array.length offsets = n + 1
  && offsets.(n) = Csr.n_arcs csr
  && List.for_all
       (fun u ->
         List.init
           (offsets.(u + 1) - offsets.(u))
           (fun i -> (neighbors.(offsets.(u) + i), edge_ids.(offsets.(u) + i)))
         = oracle_adj edges u)
       (List.init n Fun.id)

let prop_graph_matches_edge_list_oracle =
  QCheck.Test.make
    ~name:"Graph and CSR adjacency match an edge-list oracle under interleaved adds"
    ~count:200
    QCheck.(triple seed_gen (int_range 0 60) (int_range 0 150))
    (fun (seed, n, n_ops) ->
      let rng = Hmn_rng.Rng.create (seed + 500) in
      let node () = Hmn_rng.Rng.int rng ~bound:n in
      (* adds a random non-loop edge, and none below two nodes *)
      let add g edges ~bump =
        if n < 2 then edges
        else begin
          let u = node () in
          let v = (u + 1 + Hmn_rng.Rng.int rng ~bound:(n - 1)) mod n in
          let eid = Graph.add_edge g u v ((100 * List.length edges) + bump) in
          assert (eid = List.length edges);
          edges @ [ (u, v) ]
        end
      in
      let g = Graph.create ~n () in
      let edges = ref [] and ok = ref true in
      let expect b = if not b then ok := false in
      for _ = 1 to n_ops do
        match Hmn_rng.Rng.int rng ~bound:8 with
        | 0 | 1 -> edges := add g !edges ~bump:0
        | _ when n = 0 -> expect (Graph.n_edges g = 0)
        | 2 ->
          let u = node () and seen = ref [] in
          Graph.iter_adj g u (fun ~neighbor ~eid -> seen := (neighbor, eid) :: !seen);
          expect (List.rev !seen = oracle_adj !edges u)
        | 3 ->
          let u = node () in
          expect
            (Graph.fold_adj g u ~init:[] ~f:(fun acc ~neighbor ~eid ->
                 (neighbor, eid) :: acc)
            = List.rev (oracle_adj !edges u))
        | 4 ->
          let u = node () in
          expect (Graph.degree g u = List.length (oracle_adj !edges u))
        | 5 ->
          let u = node () and v = node () in
          expect (Graph.find_edge g u v = oracle_find !edges u v)
        | 6 ->
          let u = node () in
          expect (Graph.adj_list g u = oracle_adj !edges u)
        | _ ->
          if !edges <> [] then begin
            let eid = Hmn_rng.Rng.int rng ~bound:(List.length !edges) in
            expect (Graph.endpoints g eid = List.nth !edges eid)
          end
      done;
      expect (matches_oracle g !edges ~bump:0);
      expect (csr_matches_oracle g !edges);
      (* A relabelled copy and its source stay independent when either
         gains an edge, and each keeps answering from its own edges. *)
      let copy = Graph.map_labels g ~f:(fun ~eid:_ l -> l + 1) in
      let src_edges = !edges in
      expect (matches_oracle copy src_edges ~bump:1);
      let copy_edges = add copy src_edges ~bump:1 in
      expect (matches_oracle copy copy_edges ~bump:1);
      expect (matches_oracle g src_edges ~bump:0);
      let src_edges = add g src_edges ~bump:0 in
      expect (matches_oracle g src_edges ~bump:0);
      expect (matches_oracle copy copy_edges ~bump:1);
      expect (csr_matches_oracle g src_edges);
      expect (csr_matches_oracle copy copy_edges);
      !ok)

let prop_fabric_invariants =
  QCheck.Test.make
    ~name:"fat-tree/clos fabrics: host count, leaf hosts, contiguous racks"
    ~count:30
    QCheck.(
      pair (int_range 1 4) (triple (int_range 1 4) (int_range 1 5) (int_range 1 6)))
    (fun (half_k, (spines, leafs, hosts_per_leaf)) ->
      let check (f : Gen.fabric) ~hosts ~racks =
        let n = Graph.n_nodes f.Gen.graph in
        f.Gen.n_hosts = hosts && f.Gen.n_racks = racks
        && Array.length f.Gen.rack_of_host = hosts
        && Array.length f.Gen.switch_names = n - hosts
        && Array.length f.Gen.edge_tiers = Graph.n_edges f.Gen.graph
        && Traversal.is_connected f.Gen.graph
        (* every host is a leaf behind exactly one Access cable *)
        && Array.for_all
             (fun h -> Graph.degree f.Gen.graph h = 1)
             (Array.init hosts Fun.id)
        && Array.fold_left
             (fun acc t -> if t = Gen.Access then acc + 1 else acc)
             0 f.Gen.edge_tiers
           = hosts
        (* rack ids 0..racks-1, ascending, no gaps *)
        && f.Gen.rack_of_host.(0) = 0
        && f.Gen.rack_of_host.(hosts - 1) = racks - 1
        &&
        let ok = ref true in
        Array.iteri
          (fun i r ->
            if
              i > 0
              && (r < f.Gen.rack_of_host.(i - 1)
                 || r > f.Gen.rack_of_host.(i - 1) + 1)
            then ok := false)
          f.Gen.rack_of_host;
        !ok
      in
      let k = 2 * half_k in
      check (Gen.fat_tree ~k) ~hosts:(k * k * k / 4) ~racks:(k * k / 2)
      && check
           (Gen.clos ~spines ~leafs ~hosts_per_leaf)
           ~hosts:(leafs * hosts_per_leaf) ~racks:leafs)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "hmn_graph"
    [
      ( "core",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "errors" `Quick test_graph_errors;
          Alcotest.test_case "adjacency" `Quick test_graph_adjacency;
          Alcotest.test_case "map/copy" `Quick test_graph_map_copy;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "components" `Quick test_components;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "diamond" `Quick test_dijkstra_diamond;
          Alcotest.test_case "negative weight" `Quick test_dijkstra_negative_weight;
          Alcotest.test_case "distances_to undirected" `Quick
            test_distances_to_undirected;
        ] );
      ( "floyd-warshall",
        [ Alcotest.test_case "matches dijkstra" `Slow test_fw_matches_dijkstra ] );
      ( "generators",
        [
          Alcotest.test_case "line/ring/star/complete" `Quick
            test_gen_line_ring_star_complete;
          Alcotest.test_case "torus 5x8" `Quick test_gen_torus;
          Alcotest.test_case "torus small dims" `Quick test_gen_torus_small_dims;
          Alcotest.test_case "random connected" `Quick test_gen_random_connected;
          Alcotest.test_case "random connected pins" `Quick
            test_gen_random_connected_pins;
          Alcotest.test_case "expected edges" `Quick test_gen_expected_edges;
          Alcotest.test_case "random tree" `Quick test_gen_random_tree;
          Alcotest.test_case "barabasi-albert" `Quick test_gen_barabasi_albert;
          Alcotest.test_case "waxman" `Quick test_gen_waxman;
        ] );
      ( "betweenness",
        [
          Alcotest.test_case "path graph" `Quick test_betweenness_path_graph;
          Alcotest.test_case "star" `Quick test_betweenness_star;
          QCheck_alcotest.to_alcotest prop_betweenness_matches_brute_force;
        ] );
      ("dot", [ Alcotest.test_case "output" `Quick test_dot_output ]);
      ( "properties",
        [
          q prop_random_connected_always_connected;
          q prop_dijkstra_triangle_inequality;
          q prop_bfs_hops_vs_dijkstra_unit;
        ] );
      ( "csr",
        [
          q prop_csr_matches_adjacency;
          q prop_csr_leaf_free_slices;
          q prop_csr_dijkstra_bit_identical;
          q prop_graph_matches_edge_list_oracle;
          q prop_fabric_invariants;
        ] );
    ]
