module Json = Hmn_prelude.Json
module Graph = Hmn_graph.Graph
module Cluster = Hmn_testbed.Cluster
module Node = Hmn_testbed.Node
module Link = Hmn_testbed.Link
module Resources = Hmn_testbed.Resources
module Guest = Hmn_vnet.Guest
module Vlink = Hmn_vnet.Vlink
module Venv = Hmn_vnet.Virtual_env
module Problem = Hmn_mapping.Problem
module Placement = Hmn_mapping.Placement
module Link_map = Hmn_mapping.Link_map
module Mapping = Hmn_mapping.Mapping
module Path = Hmn_routing.Path

open Json

(* ---- encoding ---- *)

let resources_to_json (r : Resources.t) =
  Obj
    [
      ("mips", float r.Resources.mips);
      ("mem_mb", float r.Resources.mem_mb);
      ("stor_gb", float r.Resources.stor_gb);
    ]

let node_to_json (node : Node.t) =
  Obj
    ([
       ("name", str node.Node.name);
       ("kind", str (match node.Node.kind with Node.Host -> "host" | Node.Switch -> "switch"));
       ("capacity", resources_to_json node.Node.capacity);
     ]
    (* Optional, and omitted when absent, so bundles from flat
       topologies keep their historical bytes. *)
    @ match node.Node.rack with None -> [] | Some r -> [ ("rack", int r) ])

let edge_to_json ~u ~v fields = Obj ([ ("u", int u); ("v", int v) ] @ fields)

let cluster_to_json cluster =
  let g = Cluster.graph cluster in
  let nodes =
    List.init (Cluster.n_nodes cluster) (fun i -> node_to_json (Cluster.node cluster i))
  in
  let links =
    List.rev
      (Graph.fold_edges g ~init:[] ~f:(fun acc ~eid:_ ~u ~v (link : Link.t) ->
           edge_to_json ~u ~v
             [
               ("bandwidth_mbps", float link.Link.bandwidth_mbps);
               ("latency_ms", float link.Link.latency_ms);
             ]
           :: acc))
  in
  Obj [ ("nodes", Arr nodes); ("links", Arr links) ]

let venv_to_json venv =
  let guests =
    List.init (Venv.n_guests venv) (fun i ->
        let g = Venv.guest venv i in
        Obj [ ("name", str g.Guest.name); ("demand", resources_to_json g.Guest.demand) ])
  in
  let vlinks =
    List.rev
      (Graph.fold_edges (Venv.graph venv) ~init:[]
         ~f:(fun acc ~eid:_ ~u ~v (l : Vlink.t) ->
           edge_to_json ~u ~v
             [
               ("bandwidth_mbps", float l.Vlink.bandwidth_mbps);
               ("latency_ms", float l.Vlink.latency_ms);
             ]
           :: acc))
  in
  Obj [ ("guests", Arr guests); ("vlinks", Arr vlinks) ]

let problem_to_json (problem : Problem.t) =
  Obj
    [
      ("format", str "hmn-problem");
      ("version", int 1);
      ("cluster", cluster_to_json problem.Problem.cluster);
      ("venv", venv_to_json problem.Problem.venv);
    ]

let mapping_to_json (m : Mapping.t) =
  let venv = (Mapping.problem m).Problem.venv in
  let placement =
    List.init (Venv.n_guests venv) (fun g ->
        int (Placement.host_of_exn m.Mapping.placement ~guest:g))
  in
  let paths = ref [] in
  Link_map.iter_mapped m.Mapping.link_map (fun ~vlink path ->
      let nodes = ref [] and edges = ref [] in
      Array.iter (fun v -> nodes := int v :: !nodes) path.Path.nodes;
      Path.iter_edges path (fun e -> edges := int e :: !edges);
      paths :=
        Obj
          [
            ("vlink", int vlink);
            ("nodes", Arr (List.rev !nodes));
            ("edges", Arr (List.rev !edges));
          ]
        :: !paths);
  Obj
    [
      ("format", str "hmn-mapping");
      ("version", int 1);
      ("placement", Arr placement);
      ("paths", Arr (List.rev !paths));
    ]

let bundle_to_json m =
  Obj
    [
      ("format", str "hmn-bundle");
      ("version", int 1);
      ("problem", problem_to_json (Mapping.problem m));
      ("mapping", mapping_to_json m);
    ]

(* ---- decoding ---- *)

let resources_of_json json =
  let* mips = Result.bind (member "mips" json) to_float in
  let* mem_mb = Result.bind (member "mem_mb" json) to_float in
  let* stor_gb = Result.bind (member "stor_gb" json) to_float in
  match Resources.make ~mips ~mem_mb ~stor_gb with
  | r -> Ok r
  | exception Invalid_argument msg -> Error msg

let node_of_json json =
  let* name = Result.bind (member "name" json) to_str in
  let* kind = Result.bind (member "kind" json) to_str in
  match kind with
  | "switch" -> Ok (Node.switch ~name)
  | "host" ->
    let* capacity = Result.bind (member "capacity" json) resources_of_json in
    let* rack =
      match member "rack" json with
      | Error _ -> Ok None
      | Ok j -> Result.map Option.some (to_int j)
    in
    let node = Node.host ~name ~capacity in
    (match rack with
    | None -> Ok node
    | Some r -> (
      match Node.with_rack node r with
      | n -> Ok n
      | exception Invalid_argument msg -> Error msg))
  | other -> Error (Printf.sprintf "unknown node kind %S" other)

let edge_endpoints json =
  let* u = Result.bind (member "u" json) to_int in
  let* v = Result.bind (member "v" json) to_int in
  Ok (u, v)

let cluster_of_json json =
  let* nodes_json = Result.bind (member "nodes" json) to_list in
  let* nodes = map_result node_of_json nodes_json in
  let nodes = Array.of_list nodes in
  let* links_json = Result.bind (member "links" json) to_list in
  let graph = Graph.create ~n:(Array.length nodes) () in
  let* () =
    List.fold_left
      (fun acc link_json ->
        let* () = acc in
        let* u, v = edge_endpoints link_json in
        let* bandwidth_mbps = Result.bind (member "bandwidth_mbps" link_json) to_float in
        let* latency_ms = Result.bind (member "latency_ms" link_json) to_float in
        match
          Graph.add_edge graph u v (Link.make ~bandwidth_mbps ~latency_ms)
        with
        | _ -> Ok ()
        | exception Invalid_argument msg -> Error msg)
      (Ok ()) links_json
  in
  match Cluster.create ~nodes ~graph with
  | c -> Ok c
  | exception Invalid_argument msg -> Error msg

let venv_of_json json =
  let* guests_json = Result.bind (member "guests" json) to_list in
  let* guests =
    map_result
      (fun g ->
        let* name = Result.bind (member "name" g) to_str in
        let* demand = Result.bind (member "demand" g) resources_of_json in
        Ok (Guest.make ~name ~demand))
      guests_json
  in
  let guests = Array.of_list guests in
  let* vlinks_json = Result.bind (member "vlinks" json) to_list in
  let graph = Graph.create ~n:(Array.length guests) () in
  let* () =
    List.fold_left
      (fun acc l ->
        let* () = acc in
        let* u, v = edge_endpoints l in
        let* bandwidth_mbps = Result.bind (member "bandwidth_mbps" l) to_float in
        let* latency_ms = Result.bind (member "latency_ms" l) to_float in
        match Graph.add_edge graph u v (Vlink.make ~bandwidth_mbps ~latency_ms) with
        | _ -> Ok ()
        | exception Invalid_argument msg -> Error msg)
      (Ok ()) vlinks_json
  in
  match Venv.create ~guests ~graph with
  | v -> Ok v
  | exception Invalid_argument msg -> Error msg

let check_format json expected =
  match Result.bind (member "format" json) to_str with
  | Ok actual when actual = expected -> Ok ()
  | Ok actual -> Error (Printf.sprintf "expected format %S, found %S" expected actual)
  | Error _ -> Error (Printf.sprintf "missing format marker (expected %S)" expected)

let problem_of_json json =
  let* () = check_format json "hmn-problem" in
  let* cluster = Result.bind (member "cluster" json) cluster_of_json in
  let* venv = Result.bind (member "venv" json) venv_of_json in
  match Problem.make ~cluster ~venv with
  | p -> Ok p
  | exception Invalid_argument msg -> Error msg

let mapping_of_json ~problem json =
  let* () = check_format json "hmn-mapping" in
  let* placement_json = Result.bind (member "placement" json) to_list in
  let* hosts = map_result to_int placement_json in
  let venv = problem.Problem.venv in
  if List.length hosts <> Venv.n_guests venv then
    Error "placement length does not match the guest count"
  else begin
    let placement = Placement.create problem in
    let* () =
      List.fold_left
        (fun acc (guest, host) ->
          let* () = acc in
          match Placement.assign placement ~guest ~host with
          | Ok () -> Ok ()
          | Error msg -> Error ("placement: " ^ msg)
          | exception Invalid_argument msg -> Error msg)
        (Ok ())
        (List.mapi (fun g h -> (g, h)) hosts)
    in
    let* paths_json = Result.bind (member "paths" json) to_list in
    let link_map = Link_map.create problem in
    let* () =
      List.fold_left
        (fun acc p ->
          let* () = acc in
          let* vlink = Result.bind (member "vlink" p) to_int in
          let* nodes = Result.bind (Result.bind (member "nodes" p) to_list) (map_result to_int) in
          let* edges = Result.bind (Result.bind (member "edges" p) to_list) (map_result to_int) in
          let* path =
            match Path.make ~nodes ~edges with
            | path -> Ok path
            | exception Invalid_argument msg -> Error msg
          in
          match Link_map.assign link_map ~vlink path with
          | Ok () -> Ok ()
          | Error msg -> Error ("link map: " ^ msg)
          | exception Invalid_argument msg -> Error msg)
        (Ok ()) paths_json
    in
    match Mapping.make ~placement ~link_map with
    | m -> Ok m
    | exception Invalid_argument msg -> Error msg
  end

let bundle_of_json json =
  let* () = check_format json "hmn-bundle" in
  let* problem = Result.bind (member "problem" json) problem_of_json in
  Result.bind (member "mapping" json) (mapping_of_json ~problem)

(* ---- files ---- *)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let save_bundle ~path m = write_file path (Json.to_string ~pretty:true (bundle_to_json m))

let load_bundle ~path =
  match read_file path with
  | contents -> Result.bind (Json.of_string contents) bundle_of_json
  | exception Sys_error msg -> Error msg
