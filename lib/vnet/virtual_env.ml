module Graph = Hmn_graph.Graph
module Resources = Hmn_testbed.Resources

type t = {
  guests : Guest.t array;
  graph : Vlink.t Graph.t;
}

let create ~guests ~graph =
  if Array.length guests <> Graph.n_nodes graph then
    invalid_arg "Virtual_env.create: guest array / graph size mismatch";
  (* Build the adjacency now: Hosting's worker domains read the graph. *)
  ignore (Graph.adjacency_arrays graph);
  { guests; graph }

let graph t = t.graph
let n_guests t = Array.length t.guests
let n_vlinks t = Graph.n_edges t.graph

let guest t i =
  if i < 0 || i >= Array.length t.guests then
    invalid_arg "Virtual_env.guest: out of range";
  t.guests.(i)

let demand t i = (guest t i).Guest.demand
let vlink t eid = Graph.label t.graph eid
let endpoints t eid = Graph.endpoints t.graph eid

let total_demand t =
  Array.fold_left (fun acc g -> Resources.add acc g.Guest.demand) Resources.zero t.guests

let guest_degree_bandwidth t i =
  Graph.fold_adj t.graph i ~init:0. ~f:(fun acc ~neighbor:_ ~eid ->
      acc +. (vlink t eid).Vlink.bandwidth_mbps)

let is_connected t = Hmn_graph.Traversal.is_connected t.graph

let pp_summary ppf t =
  Format.fprintf ppf "virtual env: %d guests, %d vlinks; total demand %a"
    (n_guests t) (n_vlinks t) Resources.pp (total_demand t)
