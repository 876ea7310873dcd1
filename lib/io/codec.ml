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

(* ---- text encoding ----

   The pretty text of the encoders above, written straight from the
   values with the printer's own primitives: the bytes
   [Json.to_buffer ~pretty:true ~level] prints for their trees, without
   building them. Each writer takes [level], the depth of the value it
   writes, and calls [flush buf] after each element of an array. *)

(* [key] as a member of an object at depth [level]; the [first] member
   opens the object. *)
let key_text buf level ?(first = false) key =
  Buffer.add_char buf (if first then '{' else ',');
  Json.add_indent buf (level + 1);
  Json.add_key buf key

let close_text buf level c =
  Json.add_indent buf level;
  Buffer.add_char buf c

let int_text buf i = Json.add_number buf (float_of_int i)

(* An array at depth [level] of [n] elements, element [i] written by
   [elt (level + 1) i]. *)
let array_text ~flush buf level n elt =
  if n = 0 then Buffer.add_string buf "[]"
  else begin
    Buffer.add_char buf '[';
    for i = 0 to n - 1 do
      if i > 0 then Buffer.add_char buf ',';
      Json.add_indent buf (level + 1);
      elt (level + 1) i;
      flush buf
    done;
    close_text buf level ']'
  end

let resources_text buf level (r : Resources.t) =
  key_text buf level ~first:true "mips";
  Json.add_number buf r.Resources.mips;
  key_text buf level "mem_mb";
  Json.add_number buf r.Resources.mem_mb;
  key_text buf level "stor_gb";
  Json.add_number buf r.Resources.stor_gb;
  close_text buf level '}'

(* The edges of [g] in id order, each an object of its endpoints and
   the bandwidth and latency [fields] gives. *)
let edges_text ~flush buf level g fields =
  array_text ~flush buf level (Graph.n_edges g) (fun level eid ->
      let u, v = Graph.endpoints g eid in
      let bandwidth_mbps, latency_ms = fields (Graph.label g eid) in
      key_text buf level ~first:true "u";
      int_text buf u;
      key_text buf level "v";
      int_text buf v;
      key_text buf level "bandwidth_mbps";
      Json.add_number buf bandwidth_mbps;
      key_text buf level "latency_ms";
      Json.add_number buf latency_ms;
      close_text buf level '}')

let cluster_text ~flush buf level cluster =
  key_text buf level ~first:true "nodes";
  array_text ~flush buf (level + 1) (Cluster.n_nodes cluster) (fun level i ->
      let node = Cluster.node cluster i in
      key_text buf level ~first:true "name";
      Json.add_string buf node.Node.name;
      key_text buf level "kind";
      Json.add_string buf
        (match node.Node.kind with Node.Host -> "host" | Node.Switch -> "switch");
      key_text buf level "capacity";
      resources_text buf (level + 1) node.Node.capacity;
      (match node.Node.rack with
      | None -> ()
      | Some r ->
        key_text buf level "rack";
        int_text buf r);
      close_text buf level '}');
  key_text buf level "links";
  edges_text ~flush buf (level + 1) (Cluster.graph cluster) (fun (l : Link.t) ->
      (l.Link.bandwidth_mbps, l.Link.latency_ms));
  close_text buf level '}'

let venv_to_text ?(flush = ignore) ~level buf venv =
  key_text buf level ~first:true "guests";
  array_text ~flush buf (level + 1) (Venv.n_guests venv) (fun level i ->
      let g = Venv.guest venv i in
      key_text buf level ~first:true "name";
      Json.add_string buf g.Guest.name;
      key_text buf level "demand";
      resources_text buf (level + 1) g.Guest.demand;
      close_text buf level '}');
  key_text buf level "vlinks";
  edges_text ~flush buf (level + 1) (Venv.graph venv) (fun (l : Vlink.t) ->
      (l.Vlink.bandwidth_mbps, l.Vlink.latency_ms));
  close_text buf level '}'

let problem_to_text ?(flush = ignore) ~level buf (problem : Problem.t) =
  key_text buf level ~first:true "format";
  Json.add_string buf "hmn-problem";
  key_text buf level "version";
  int_text buf 1;
  key_text buf level "cluster";
  cluster_text ~flush buf (level + 1) problem.Problem.cluster;
  key_text buf level "venv";
  venv_to_text ~flush ~level:(level + 1) buf problem.Problem.venv;
  close_text buf level '}'

(* ---- decoding ----

   A decode error says where it happened: a path from the root of the
   decoded document, such as [cluster.links[17]], and what went wrong.
   Decoders here return it as a pair, and the public ones render it as
   "path: message". *)

type located = { path : string; msg : string }

let fail msg = Error { path = ""; msg }

(* A [Json] helper's error, located where it is read. *)
let plain r = Result.map_error (fun msg -> { path = ""; msg }) r

let render { path; msg } = if path = "" then msg else path ^ ": " ^ msg

(* [r] with [seg], a member name or an index "[i]", in front of the
   path of its error. *)
let within seg r =
  Result.map_error
    (fun e ->
      let path =
        if e.path = "" then seg
        else if e.path.[0] = '[' then seg ^ e.path
        else seg ^ "." ^ e.path
      in
      { e with path })
    r

let guard f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument msg -> fail msg

(* The member [key] of [json], decoded by [f]. *)
let field key f json =
  match member key json with
  | Error msg -> fail msg
  | Ok v -> within key (f v)

(* Every element of an array, decoded by [f index element]; the first
   error stops the walk. *)
let elements f xs =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
      match within (Printf.sprintf "[%d]" i) (f i x) with
      | Ok y -> go (i + 1) (y :: acc) rest
      | Error _ as e -> e)
  in
  go 0 [] xs

let num key json = field key (fun v -> plain (to_float v)) json
let int_of key json = field key (fun v -> plain (to_int v)) json
let str_of key json = field key (fun v -> plain (to_str v)) json

let list_of key f json =
  field key
    (fun v ->
      let* xs = plain (to_list v) in
      elements f xs)
    json

let resources_of_json json =
  let* mips = num "mips" json in
  let* mem_mb = num "mem_mb" json in
  let* stor_gb = num "stor_gb" json in
  guard (fun () -> Resources.make ~mips ~mem_mb ~stor_gb)

let node_of_json json =
  let* name = str_of "name" json in
  let* kind = str_of "kind" json in
  match kind with
  | "switch" -> Ok (Node.switch ~name)
  | "host" -> (
    let* capacity = field "capacity" resources_of_json json in
    let node = Node.host ~name ~capacity in
    match member "rack" json with
    | Error _ -> Ok node
    | Ok j ->
      within "rack"
        (let* r = plain (to_int j) in
         guard (fun () -> Node.with_rack node r)))
  | other -> within "kind" (fail (Printf.sprintf "unknown node kind %S" other))

(* One edge entry, added to [graph] with the label [make] builds from
   its bandwidth and latency. *)
let edge_of_json graph make json =
  let* u = int_of "u" json in
  let* v = int_of "v" json in
  let* bandwidth_mbps = num "bandwidth_mbps" json in
  let* latency_ms = num "latency_ms" json in
  guard (fun () -> ignore (Graph.add_edge graph u v (make ~bandwidth_mbps ~latency_ms)))

let cluster_of_json json =
  let* nodes = list_of "nodes" (fun _ -> node_of_json) json in
  let nodes = Array.of_list nodes in
  let graph = Graph.create ~n:(Array.length nodes) () in
  let* _ = list_of "links" (fun _ -> edge_of_json graph Link.make) json in
  guard (fun () -> Cluster.create ~nodes ~graph)

let venv_of_json_located json =
  let* guests =
    list_of "guests"
      (fun _ g ->
        let* name = str_of "name" g in
        let* demand = field "demand" resources_of_json g in
        Ok (Guest.make ~name ~demand))
      json
  in
  let guests = Array.of_list guests in
  let graph = Graph.create ~n:(Array.length guests) () in
  let* _ = list_of "vlinks" (fun _ -> edge_of_json graph Vlink.make) json in
  guard (fun () -> Venv.create ~guests ~graph)

let check_format json expected =
  match Result.bind (member "format" json) to_str with
  | Ok actual when actual = expected -> Ok ()
  | Ok actual -> fail (Printf.sprintf "expected format %S, found %S" expected actual)
  | Error _ -> fail (Printf.sprintf "missing format marker (expected %S)" expected)

let problem_of_json_located json =
  let* () = check_format json "hmn-problem" in
  let* cluster = field "cluster" cluster_of_json json in
  let* venv = field "venv" venv_of_json_located json in
  guard (fun () -> Problem.make ~cluster ~venv)

let mapping_of_json_located ~problem json =
  let* () = check_format json "hmn-mapping" in
  let* hosts = list_of "placement" (fun _ h -> plain (to_int h)) json in
  let n_guests = Venv.n_guests problem.Problem.venv in
  if List.length hosts <> n_guests then
    within "placement"
      (fail (Printf.sprintf "%d entries for %d guests" (List.length hosts) n_guests))
  else begin
    let placement = Placement.create problem in
    let* _ =
      within "placement"
        (elements
           (fun guest host ->
             match Placement.assign placement ~guest ~host with
             | Ok () -> Ok ()
             | Error msg -> fail msg
             | exception Invalid_argument msg -> fail msg)
           hosts)
    in
    let link_map = Link_map.create problem in
    let ints key = list_of key (fun _ j -> plain (to_int j)) in
    let* _ =
      list_of "paths"
        (fun _ p ->
          let* vlink = int_of "vlink" p in
          let* nodes = ints "nodes" p in
          let* edges = ints "edges" p in
          let* path = guard (fun () -> Path.make ~nodes ~edges) in
          match Link_map.assign link_map ~vlink path with
          | Ok () -> Ok ()
          | Error msg -> fail msg
          | exception Invalid_argument msg -> fail msg)
        json
    in
    guard (fun () -> Mapping.make ~placement ~link_map)
  end

let bundle_of_json_located json =
  let* () = check_format json "hmn-bundle" in
  let* problem = field "problem" problem_of_json_located json in
  field "mapping" (mapping_of_json_located ~problem) json

let venv_of_json json = Result.map_error render (venv_of_json_located json)
let problem_of_json json = Result.map_error render (problem_of_json_located json)

let mapping_of_json ~problem json =
  Result.map_error render (mapping_of_json_located ~problem json)

let bundle_of_json json = Result.map_error render (bundle_of_json_located json)

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
