(* The artifact compiler's emitters as they were before the shell
   emitters appended with Buffer.add_string and looked launches up by
   node index: Printf.bprintf per line, [List.assoc_opt node launches]
   per node, Hashtbl-built launch and class tables, the naming rules by
   Printf.sprintf, numbers by the Printf rule Spec.fmt_num had, and the
   JSON files printed by the old printer (reference_json.ml). Full and
   Tenant scope, both formats. Retained verbatim as the oracle for the
   byte-identity property in test_artifact.ml. Do not "improve" this
   file — its value is that it is the old compiler. *)

module Cluster = Hmn_testbed.Cluster
module Node = Hmn_testbed.Node
module Link = Hmn_testbed.Link
module Vmm = Hmn_testbed.Vmm
module Resources = Hmn_testbed.Resources
module Venv = Hmn_vnet.Virtual_env
module Guest = Hmn_vnet.Guest
module Vlink = Hmn_vnet.Vlink
module Path = Hmn_routing.Path
module Residual = Hmn_routing.Residual
module Mapping = Hmn_mapping.Mapping
module Placement = Hmn_mapping.Placement
module Link_map = Hmn_mapping.Link_map
module Problem = Hmn_mapping.Problem
module Json = Hmn_prelude.Json

module Spec = Hmn_artifact.Spec

(* the number rule and naming of Spec at the time *)
let fmt_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let host_bridge i = Printf.sprintf "br-h%d" i
let switch_bridge i = Printf.sprintf "br-s%d" i
let port eid = Printf.sprintf "pe%d" eid
let iface guest = Printf.sprintf "vif%d.0" guest

(* The common input: a cluster, a virtual environment, and total
   placement/routing functions over it. Whole mappings and online
   tenants both reduce to this. *)
type scope = Full | Tenant of int

let scope_name = function Full -> "full" | Tenant _ -> "tenant"

(* ---- derived placement tables, in canonical order ---- *)

(* host id -> its guests ascending; hosts ascending, only hosts that
   run at least one guest. *)
let launches_by_host ~venv ~host_of =
  let tbl = Hashtbl.create 64 in
  for g = 0 to Venv.n_guests venv - 1 do
    let h = host_of g in
    Hashtbl.replace tbl h (g :: Option.value (Hashtbl.find_opt tbl h) ~default:[])
  done;
  Hashtbl.fold (fun h gs acc -> (h, List.rev gs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* edge id -> (vlink, rate) ascending vlink; edges ascending, only
   edges that carry at least one routed virtual link. *)
let classes_by_edge ~venv ~path_of =
  let tbl = Hashtbl.create 256 in
  for vl = 0 to Venv.n_vlinks venv - 1 do
    let path = path_of vl in
    if not (Path.is_intra_host path) then begin
      let rate = (Venv.vlink venv vl).Vlink.bandwidth_mbps in
      Path.iter_edges path (fun eid ->
          Hashtbl.replace tbl eid
            ((vl, rate) :: Option.value (Hashtbl.find_opt tbl eid) ~default:[]))
    end
  done;
  Hashtbl.fold (fun eid cls acc -> (eid, List.rev cls) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let vmm_label vmm =
  if vmm = Vmm.none then "none"
  else if vmm = Vmm.xen_like then "xen"
  else "custom"

let bridge_of_node cluster i =
  if Cluster.is_host cluster i then host_bridge i else switch_bridge i

(* Ports of a node's bridge: one per incident physical link (ascending
   edge id — adjacency order is per-node insertion order, so sort), then
   the vifs of the guests launched there (ascending guest id). *)
let bridge_ports ~cluster ~launches node =
  let edges = ref [] in
  Hmn_graph.Graph.iter_adj (Cluster.graph cluster) node
    (fun ~neighbor:_ ~eid -> edges := eid :: !edges);
  let edge_ports = List.map port (List.sort Int.compare !edges) in
  let vif_ports =
    match List.assoc_opt node launches with
    | Some guests -> List.map iface guests
    | None -> []
  in
  edge_ports @ vif_ports

(* ---- shell emission ---- *)

let sq s = "'" ^ s ^ "'"

let emit_vms_shell ~scope ~vmm ~cluster ~venv ~launches =
  let b = Buffer.create 4096 in
  Buffer.add_string b "#!/bin/sh\n";
  Printf.bprintf b "# hmn-artifact vms schema=%d format=shell scope=%s\n"
    Spec.schema_version (scope_name scope);
  List.iter
    (fun (host, guests) ->
      Printf.bprintf b "# host id=%d name=%s vmm=%s guests=%d\n" host
        (sq (Cluster.node cluster host).Node.name)
        (vmm_label vmm) (List.length guests);
      List.iter
        (fun g ->
          let guest = Venv.guest venv g in
          let d = guest.Guest.demand in
          Printf.bprintf b
            "hmn_vm launch --guest %d --name %s --host %d --mem-mb %s \
             --stor-gb %s --cpu-mips %s --iface %s --bridge %s\n"
            g (sq guest.Guest.name) host
            (fmt_num d.Resources.mem_mb)
            (fmt_num d.Resources.stor_gb)
            (fmt_num d.Resources.mips)
            (iface g)
            (bridge_of_node cluster host))
        guests)
    launches;
  Buffer.contents b

let emit_net_shell ~scope ~cluster ~launches ~edge_classes =
  let b = Buffer.create 4096 in
  Buffer.add_string b "#!/bin/sh\n";
  Printf.bprintf b "# hmn-artifact net schema=%d format=shell scope=%s\n"
    Spec.schema_version (scope_name scope);
  Buffer.add_string b "# bridges\n";
  (match scope with
  | Full ->
    for node = 0 to Cluster.n_nodes cluster - 1 do
      let br = bridge_of_node cluster node in
      Printf.bprintf b "ovs-vsctl add-br %s\n" br;
      List.iter
        (fun port -> Printf.bprintf b "ovs-vsctl add-port %s %s\n" br port)
        (bridge_ports ~cluster ~launches node)
    done
  | Tenant _ ->
    (* delta: the physical bridges and link ports exist already — only
       attach this tenant's vifs *)
    List.iter
      (fun (host, guests) ->
        let br = bridge_of_node cluster host in
        List.iter
          (fun g -> Printf.bprintf b "ovs-vsctl add-port %s %s\n" br (iface g))
          guests)
      launches);
  Buffer.add_string b "# shaping\n";
  List.iter
    (fun (eid, classes) ->
      let u, v = Hmn_graph.Graph.endpoints (Cluster.graph cluster) eid in
      let link = Cluster.link cluster eid in
      let dev = port eid in
      Printf.bprintf b "# link e%d u=%d v=%d cap-mbit=%s delay-ms=%s\n" eid u v
        (fmt_num link.Link.bandwidth_mbps)
        (fmt_num link.Link.latency_ms);
      (match scope with
      | Full -> Printf.bprintf b "tc qdisc add dev %s root handle 1: htb\n" dev
      | Tenant _ -> ());
      List.iteri
        (fun rank (vl, rate) ->
          let minor = Spec.minor_of_rank rank in
          Printf.bprintf b
            "tc class add dev %s parent 1: classid 1:%d htb rate %smbit ceil \
             %smbit\n"
            dev minor (fmt_num rate) (fmt_num rate);
          Printf.bprintf b
            "tc qdisc add dev %s parent 1:%d handle %d: netem delay %sms\n" dev
            minor minor
            (fmt_num link.Link.latency_ms);
          Printf.bprintf b
            "tc filter add dev %s parent 1: handle %d fw flowid 1:%d\n" dev vl
            minor)
        classes)
    edge_classes;
  Buffer.contents b

(* ---- JSON emission ---- *)

let scope_fields scope =
  ("scope", Json.str (scope_name scope))
  :: (match scope with Full -> [] | Tenant id -> [ ("tenant_id", Json.int id) ])

let emit_vms_json ~scope ~vmm ~cluster ~venv ~launches =
  let hosts =
    List.map
      (fun (host, guests) ->
        Json.Obj
          [
            ("host", Json.int host);
            ("name", Json.str (Cluster.node cluster host).Node.name);
            ("vmm", Json.str (vmm_label vmm));
            ("bridge", Json.str (bridge_of_node cluster host));
            ( "vms",
              Json.Arr
                (List.map
                   (fun g ->
                     let guest = Venv.guest venv g in
                     let d = guest.Guest.demand in
                     Json.Obj
                       [
                         ("guest", Json.int g);
                         ("name", Json.str guest.Guest.name);
                         ("mem_mb", Json.float d.Resources.mem_mb);
                         ("stor_gb", Json.float d.Resources.stor_gb);
                         ("cpu_mips", Json.float d.Resources.mips);
                         ("iface", Json.str (iface g));
                       ])
                   guests) );
          ])
      launches
  in
  Reference_json.to_string ~pretty:true
    (Json.Obj
       ([
          ("format", Json.str "hmn-artifact-vms");
          ("schema_version", Json.int Spec.schema_version);
        ]
       @ scope_fields scope
       @ [ ("hosts", Json.Arr hosts) ]))
  ^ "\n"

let emit_net_json ~scope ~cluster ~launches ~edge_classes =
  let bridges =
    match scope with
    | Full ->
      List.init (Cluster.n_nodes cluster) (fun node ->
          Json.Obj
            [
              ("node", Json.int node);
              ( "kind",
                Json.str (if Cluster.is_host cluster node then "host" else "switch") );
              ("name", Json.str (bridge_of_node cluster node));
              ( "ports",
                Json.Arr
                  (List.map Json.str (bridge_ports ~cluster ~launches node)) );
            ])
    | Tenant _ ->
      List.map
        (fun (host, guests) ->
          Json.Obj
            [
              ("node", Json.int host);
              ("kind", Json.str "host");
              ("name", Json.str (bridge_of_node cluster host));
              ("ports", Json.Arr (List.map (fun g -> Json.str (iface g)) guests));
            ])
        launches
  in
  let links =
    List.map
      (fun (eid, classes) ->
        let u, v = Hmn_graph.Graph.endpoints (Cluster.graph cluster) eid in
        let link = Cluster.link cluster eid in
        Json.Obj
          [
            ("edge", Json.int eid);
            ("u", Json.int u);
            ("v", Json.int v);
            ("capacity_mbps", Json.float link.Link.bandwidth_mbps);
            ("delay_ms", Json.float link.Link.latency_ms);
            ( "classes",
              Json.Arr
                (List.mapi
                   (fun rank (vl, rate) ->
                     Json.Obj
                       [
                         ("minor", Json.int (Spec.minor_of_rank rank));
                         ("vlink", Json.int vl);
                         ("rate_mbps", Json.float rate);
                         ("delay_ms", Json.float link.Link.latency_ms);
                       ])
                   classes) );
          ])
      edge_classes
  in
  Reference_json.to_string ~pretty:true
    (Json.Obj
       ([
          ("format", Json.str "hmn-artifact-net");
          ("schema_version", Json.int Spec.schema_version);
        ]
       @ scope_fields scope
       @ [ ("bridges", Json.Arr bridges); ("links", Json.Arr links) ]))
  ^ "\n"

(* ---- manifest ---- *)

let manifest ~scope ~format ~vmm ~cluster ~venv ~launches ~edge_classes ~payload
    ~files =
  let n_classes =
    List.fold_left (fun acc (_, cls) -> acc + List.length cls) 0 edge_classes
  in
  Reference_json.to_string ~pretty:true
    (Json.Obj
       ([
          ("format", Json.str "hmn-artifact-manifest");
          ("schema_version", Json.int Spec.schema_version);
          ("artifact_format", Json.str (Spec.format_name format));
        ]
       @ scope_fields scope
       @ [
           ( "vmm",
             Json.Obj
               [
                 ("label", Json.str (vmm_label vmm));
                 ("mips", Json.float vmm.Vmm.mips);
                 ("mem_mb", Json.float vmm.Vmm.mem_mb);
                 ("stor_gb", Json.float vmm.Vmm.stor_gb);
               ] );
           ( "counts",
             Json.Obj
               [
                 ("nodes", Json.int (Cluster.n_nodes cluster));
                 ("hosts", Json.int (Cluster.n_hosts cluster));
                 ("links", Json.int (Hmn_graph.Graph.n_edges (Cluster.graph cluster)));
                 ("guests", Json.int (Venv.n_guests venv));
                 ("vlinks", Json.int (Venv.n_vlinks venv));
                 ("launch_hosts", Json.int (List.length launches));
                 ("shaped_links", Json.int (List.length edge_classes));
                 ("classes", Json.int n_classes);
               ] );
           (* the slack Artifact_check grants on per-link rate sums:
              the ledger tolerance times (vlinks + 1), mirroring
              Validator.residual_tolerance *)
           ( "tolerance_mbps",
             Json.float (Residual.tolerance *. float_of_int (Venv.n_vlinks venv + 1))
           );
           payload;
           ( "files",
             Json.Arr
               (List.map
                  (fun (name, content) ->
                    Json.Obj
                      [
                        ("name", Json.str name);
                        ("bytes", Json.int (String.length content));
                      ])
                  files) );
         ]))
  ^ "\n"

(* ---- entry points ---- *)

let emit ?(vmm = Vmm.xen_like) ~format ~scope ~cluster ~venv ~host_of ~path_of
    ~payload () =
  let launches = launches_by_host ~venv ~host_of in
  let edge_classes = classes_by_edge ~venv ~path_of in
  let vms, net =
    match format with
    | Spec.Shell ->
      ( emit_vms_shell ~scope ~vmm ~cluster ~venv ~launches,
        emit_net_shell ~scope ~cluster ~launches ~edge_classes )
    | Spec.Json ->
      ( emit_vms_json ~scope ~vmm ~cluster ~venv ~launches,
        emit_net_json ~scope ~cluster ~launches ~edge_classes )
  in
  let files =
    [ (Spec.vms_file format, vms); (Spec.net_file format, net) ]
  in
  let manifest =
    manifest ~scope ~format ~vmm ~cluster ~venv ~launches ~edge_classes ~payload
      ~files
  in
  (Spec.manifest_file, manifest) :: files

let of_mapping ?vmm ~format (m : Mapping.t) =
  let problem = Mapping.problem m in
  let cluster = problem.Problem.cluster and venv = problem.Problem.venv in
  let host_of g = Placement.host_of_exn m.Mapping.placement ~guest:g in
  let path_of vl =
    match Link_map.path_of m.Mapping.link_map ~vlink:vl with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "Compile: virtual link %d is unrouted" vl)
  in
  emit ?vmm ~format ~scope:Full ~cluster ~venv ~host_of ~path_of
    ~payload:("problem", Hmn_io.Codec.problem_to_json problem)
    ()

let of_tenant ?vmm ~format ~cluster ~venv ~id ~hosts ~paths () =
  if Array.length hosts <> Venv.n_guests venv then
    invalid_arg "Compile.of_tenant: hosts length";
  if Array.length paths <> Venv.n_vlinks venv then
    invalid_arg "Compile.of_tenant: paths length";
  emit ?vmm ~format ~scope:(Tenant id) ~cluster ~venv
    ~host_of:(fun g -> hosts.(g))
    ~path_of:(fun vl -> paths.(vl))
    ~payload:("venv", Hmn_io.Codec.venv_to_json venv)
    ()
