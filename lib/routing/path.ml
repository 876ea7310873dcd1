module Graph = Hmn_graph.Graph
module Cluster = Hmn_testbed.Cluster

type t = {
  nodes : int array;
  edges : int array;
}

let make ~nodes ~edges =
  let nodes = Array.of_list nodes and edges = Array.of_list edges in
  if Array.length nodes = 0 then invalid_arg "Path.make: empty node list";
  if Array.length edges <> Array.length nodes - 1 then
    invalid_arg "Path.make: edge/node length mismatch";
  { nodes; edges }

let trivial v = { nodes = [| v |]; edges = [||] }

let src t = t.nodes.(0)
let dst t = t.nodes.(Array.length t.nodes - 1)
let hop_count t = Array.length t.edges
let is_intra_host t = Array.length t.edges = 0

let iter_edges t f = Array.iter f t.edges

let total_latency cluster t =
  Hmn_prelude.Array_ext.sum_by
    (fun eid -> (Cluster.link cluster eid).Hmn_testbed.Link.latency_ms)
    t.edges

let bottleneck ~capacity t =
  if is_intra_host t then infinity
  else Array.fold_left (fun acc eid -> Float.min acc (capacity eid)) infinity t.edges

let validate cluster ~src:s ~dst:d t =
  let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt in
  if src t <> s then fail "path starts at %d, expected %d" (src t) s
  else if dst t <> d then fail "path ends at %d, expected %d" (dst t) d
  else begin
    let g = Cluster.graph cluster in
    let n = Array.length t.nodes in
    let seen = Hashtbl.create n in
    let rec check i =
      if i >= n then Ok ()
      else if Hashtbl.mem seen t.nodes.(i) then
        fail "node %d repeats on the path" t.nodes.(i)
      else begin
        Hashtbl.add seen t.nodes.(i) ();
        if i = n - 1 then Ok ()
        else begin
          let eid = t.edges.(i) in
          if eid < 0 || eid >= Graph.n_edges g then fail "edge %d out of range" eid
          else begin
            let u, v = Graph.endpoints g eid in
            let a = t.nodes.(i) and b = t.nodes.(i + 1) in
            if (a = u && b = v) || (a = v && b = u) then check (i + 1)
            else fail "edge %d does not join nodes %d and %d" eid a b
          end
        end
      end
    in
    check 0
  end

let pp ppf t =
  Format.fprintf ppf "[%s]"
    (String.concat " - " (Array.to_list (Array.map string_of_int t.nodes)))
