module Graph = Hmn_graph.Graph
module Csr = Hmn_graph.Csr

type t = {
  nodes : Node.t array;
  graph : Link.t Graph.t;
  host_ids : int array;
  csr : Csr.t;
  link_latencies : float array;
  link_bandwidths : float array;
  racks : int array array;
  rack_of : int array;
}

(* Hosts grouped by their rack label, valid only when every host carries
   one: a partially-labelled cluster has no meaningful sharding. Rack
   ids are densified in ascending label order so builders may use any
   label scheme. *)
let group_racks nodes host_ids =
  let n = Array.length nodes in
  let rack_of = Array.make n (-1) in
  let all_racked =
    Array.length host_ids > 0
    && Array.for_all (fun i -> Node.rack nodes.(i) <> None) host_ids
  in
  if not all_racked then ([||], rack_of)
  else begin
    let labels =
      List.sort_uniq Int.compare
        (Array.to_list (Array.map (fun i -> Option.get (Node.rack nodes.(i))) host_ids))
    in
    let dense = Hashtbl.create 16 in
    List.iteri (fun d label -> Hashtbl.add dense label d) labels;
    let racks = Array.make (List.length labels) [] in
    (* host_ids is ascending: build each rack's member list ascending. *)
    for k = Array.length host_ids - 1 downto 0 do
      let i = host_ids.(k) in
      let d = Hashtbl.find dense (Option.get (Node.rack nodes.(i))) in
      rack_of.(i) <- d;
      racks.(d) <- i :: racks.(d)
    done;
    (Array.map Array.of_list racks, rack_of)
  end

let create ~nodes ~graph =
  if Array.length nodes <> Graph.n_nodes graph then
    invalid_arg "Cluster.create: node array / graph size mismatch";
  let host_ids =
    Array.of_list
      (List.filter
         (fun i -> Node.can_host nodes.(i))
         (List.init (Array.length nodes) Fun.id))
  in
  let n_edges = Graph.n_edges graph in
  let link_latencies = Array.make n_edges 0. in
  let link_bandwidths = Array.make n_edges 0. in
  Graph.iter_edges graph (fun ~eid ~u:_ ~v:_ link ->
      link_latencies.(eid) <- link.Link.latency_ms;
      link_bandwidths.(eid) <- link.Link.bandwidth_mbps);
  let racks, rack_of = group_racks nodes host_ids in
  {
    nodes;
    graph;
    host_ids;
    csr = Csr.of_graph graph;
    link_latencies;
    link_bandwidths;
    racks;
    rack_of;
  }

let graph t = t.graph
let csr t = t.csr
let n_nodes t = Array.length t.nodes

let node t i =
  if i < 0 || i >= Array.length t.nodes then invalid_arg "Cluster.node: out of range";
  t.nodes.(i)

let host_ids t = t.host_ids
let n_hosts t = Array.length t.host_ids
let is_host t i = Node.can_host (node t i)

let capacity t i = (node t i).Node.capacity

let total_capacity t =
  Array.fold_left
    (fun acc i -> Resources.add acc (capacity t i))
    Resources.zero t.host_ids

let link t eid = Graph.label t.graph eid
let link_latencies t = t.link_latencies
let link_bandwidths t = t.link_bandwidths

let racks t = t.racks
let n_racks t = Array.length t.racks

let rack_of_node t i =
  if i < 0 || i >= Array.length t.rack_of then
    invalid_arg "Cluster.rack_of_node: out of range";
  let r = t.rack_of.(i) in
  if r < 0 then None else Some r

let is_connected t = Hmn_graph.Traversal.is_connected t.graph

let pp_summary ppf t =
  let switches = n_nodes t - n_hosts t in
  Format.fprintf ppf
    "cluster: %d hosts, %d switches, %d links; total %a" (n_hosts t) switches
    (Graph.n_edges t.graph) Resources.pp (total_capacity t)
