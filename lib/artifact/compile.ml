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

type bundle = {
  format : Spec.format;
  files : (string * string) list;
}

let bytes b =
  List.fold_left (fun acc (_, content) -> acc + String.length content) 0 b.files

(* The common input: a cluster, a virtual environment, and total
   placement/routing functions over it. Whole mappings and online
   tenants both reduce to this. *)
type scope = Full | Tenant of int

let scope_name = function Full -> "full" | Tenant _ -> "tenant"

(* ---- derived placement tables, in canonical order ---- *)

(* (index, bucket) for every non-empty bucket, indices ascending *)
let nonempty buckets =
  let acc = ref [] in
  for i = Array.length buckets - 1 downto 0 do
    if buckets.(i) <> [] then acc := (i, buckets.(i)) :: !acc
  done;
  !acc

(* node id -> its guests ascending *)
let guests_by_node ~cluster ~venv ~host_of =
  let at = Array.make (Cluster.n_nodes cluster) [] in
  for g = Venv.n_guests venv - 1 downto 0 do
    let h = host_of g in
    at.(h) <- g :: at.(h)
  done;
  at

(* Edge -> the virtual links routed over it, as a CSR: the links on
   edge [edges.(i)] are [vlinks.(start.(i)) .. vlinks.(start.(i+1) - 1)].
   [edges] holds only edges that carry at least one routed virtual link,
   ascending. Two passes over the virtual links in ascending order (one
   counts, one fills), so each edge's links come out ascending with no
   sort: exactly the class order, rank by rank. *)
type classes = { edges : int array; start : int array; vlinks : int array }

let classes_by_edge ~cluster ~venv ~path_of =
  let n_edges = Hmn_graph.Graph.n_edges (Cluster.graph cluster) in
  let n_vlinks = Venv.n_vlinks venv in
  let count = Array.make n_edges 0 in
  for vl = 0 to n_vlinks - 1 do
    let edges = (path_of vl).Path.edges in
    for i = 0 to Array.length edges - 1 do
      count.(edges.(i)) <- count.(edges.(i)) + 1
    done
  done;
  let n_shaped = Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 count in
  let edges = Array.make n_shaped 0 and start = Array.make (n_shaped + 1) 0 in
  (* [count.(eid)] becomes the fill position of eid's next link *)
  let i = ref 0 and total = ref 0 in
  Array.iteri
    (fun eid c ->
      if c > 0 then begin
        edges.(!i) <- eid;
        start.(!i) <- !total;
        count.(eid) <- !total;
        total := !total + c;
        incr i
      end)
    count;
  start.(n_shaped) <- !total;
  let vlinks = Array.make !total 0 in
  for vl = 0 to n_vlinks - 1 do
    let edges = (path_of vl).Path.edges in
    for i = 0 to Array.length edges - 1 do
      let eid = edges.(i) in
      vlinks.(count.(eid)) <- vl;
      count.(eid) <- count.(eid) + 1
    done
  done;
  { edges; start; vlinks }

let vmm_label vmm =
  if vmm = Vmm.none then "none"
  else if vmm = Vmm.xen_like then "xen"
  else "custom"

let bridge_of_node cluster i =
  if Cluster.is_host cluster i then Spec.host_bridge i else Spec.switch_bridge i

(* Ports of a node's bridge: one per incident physical link (ascending
   edge id — adjacency order is per-node insertion order, so sort), then
   the vifs of the guests launched there (ascending guest id). *)
let bridge_ports ~cluster ~guests_at node =
  let edges = ref [] in
  Hmn_graph.Graph.iter_adj (Cluster.graph cluster) node
    (fun ~neighbor:_ ~eid -> edges := eid :: !edges);
  let edge_ports = List.map Spec.port (List.sort Int.compare !edges) in
  edge_ports @ List.map Spec.iface guests_at.(node)

(* ---- shell emission ---- *)

let add = Buffer.add_string
let add_int b i = add b (string_of_int i)
let add_header b ~file ~scope =
  add b "#!/bin/sh\n# hmn-artifact ";
  add b file;
  add b " schema=";
  add_int b Spec.schema_version;
  add b " format=shell scope=";
  add b (scope_name scope);
  Buffer.add_char b '\n'

(* vms.sh, and the shaping section that is the bulk of net.sh, are
   written into one byte string sized from their parts. *)
type out = { bytes : Bytes.t; mutable pos : int }

let put o s =
  Bytes.blit_string s 0 o.bytes o.pos (String.length s);
  o.pos <- o.pos + String.length s

(* Each launched guest's id and three numbers are formatted once, and
   each host's comment line and bridge once; the launch line is
     hmn_vm launch --guest G --name 'N' --host H --mem-mb M --stor-gb S
       --cpu-mips C --iface <vif G> --bridge B\n *)
let emit_vms_shell ~scope ~vmm ~cluster ~venv ~launches =
  let b = Buffer.create 128 in
  add_header b ~file:"vms" ~scope;
  let vmm = vmm_label vmm in
  let vif = Spec.iface_affixes in
  let n = Venv.n_guests venv in
  let id_text = Array.make n "" and mem_text = Array.make n "" in
  let stor_text = Array.make n "" and cpu_text = Array.make n "" in
  let fixed =
    String.length "hmn_vm launch --guest  --name '' --host  --mem-mb  --stor-gb "
    + String.length " --cpu-mips  --iface  --bridge \n"
    + String.length vif.Spec.prefix + String.length vif.Spec.suffix
  in
  let len = ref (Buffer.length b) in
  let hosts =
    List.map
      (fun (host, guests) ->
        let host_text = string_of_int host and bridge = bridge_of_node cluster host in
        let line =
          String.concat ""
            [ "# host id="; host_text; " name='"; (Cluster.node cluster host).Node.name;
              "' vmm="; vmm; " guests="; string_of_int (List.length guests); "\n" ]
        in
        let per_guest = fixed + String.length host_text + String.length bridge in
        len := !len + String.length line;
        List.iter
          (fun g ->
            let guest = Venv.guest venv g in
            let d = guest.Guest.demand in
            id_text.(g) <- string_of_int g;
            mem_text.(g) <- Json.number_to_string d.Resources.mem_mb;
            stor_text.(g) <- Json.number_to_string d.Resources.stor_gb;
            cpu_text.(g) <- Json.number_to_string d.Resources.mips;
            len :=
              !len + per_guest
              + (2 * String.length id_text.(g))
              + String.length guest.Guest.name
              + String.length mem_text.(g)
              + String.length stor_text.(g)
              + String.length cpu_text.(g))
          guests;
        (host_text, bridge, line, guests))
      launches
  in
  let o = { bytes = Bytes.create !len; pos = Buffer.length b } in
  Buffer.blit b 0 o.bytes 0 o.pos;
  List.iter
    (fun (host_text, bridge, line, guests) ->
      put o line;
      List.iter
        (fun g ->
          put o "hmn_vm launch --guest ";
          put o id_text.(g);
          put o " --name '";
          put o (Venv.guest venv g).Guest.name;
          put o "' --host ";
          put o host_text;
          put o " --mem-mb ";
          put o mem_text.(g);
          put o " --stor-gb ";
          put o stor_text.(g);
          put o " --cpu-mips ";
          put o cpu_text.(g);
          put o " --iface ";
          put o vif.Spec.prefix;
          put o id_text.(g);
          put o vif.Spec.suffix;
          put o " --bridge ";
          put o bridge;
          put o "\n")
        guests)
    hosts;
  assert (o.pos = Bytes.length o.bytes);
  Bytes.unsafe_to_string o.bytes

let add_port b br port =
  add b "ovs-vsctl add-port ";
  add b br;
  Buffer.add_char b ' ';
  add b port;
  Buffer.add_char b '\n'

let emit_net_shell ~scope ~cluster ~venv ~guests_at ~launches ~classes =
  let g = Cluster.graph cluster in
  let b = Buffer.create 4096 in
  add_header b ~file:"net" ~scope;
  add b "# bridges\n";
  (match scope with
  | Full ->
    for node = 0 to Cluster.n_nodes cluster - 1 do
      let br = bridge_of_node cluster node in
      add b "ovs-vsctl add-br ";
      add b br;
      Buffer.add_char b '\n';
      List.iter (add_port b br) (bridge_ports ~cluster ~guests_at node)
    done
  | Tenant _ ->
    (* delta: the physical bridges and link ports exist already — only
       attach this tenant's vifs *)
    List.iter
      (fun (host, guests) ->
        let br = bridge_of_node cluster host in
        List.iter (fun g -> add_port b br (Spec.iface g)) guests)
      launches);
  add b "# shaping\n";
  (* the text of every routed vlink's rate and fw handle, made once for
     all the links it crosses; the class minor of every rank, once *)
  let n_vlinks = Venv.n_vlinks venv in
  let rate_text = Array.make n_vlinks "" and handle_text = Array.make n_vlinks "" in
  Array.iter
    (fun vl ->
      if rate_text.(vl) = "" then begin
        rate_text.(vl) <-
          Json.number_to_string (Venv.vlink venv vl).Vlink.bandwidth_mbps;
        handle_text.(vl) <- string_of_int vl
      end)
    classes.vlinks;
  let n_shaped = Array.length classes.edges in
  let widest = ref 0 in
  for i = 0 to n_shaped - 1 do
    widest := max !widest (classes.start.(i + 1) - classes.start.(i))
  done;
  let minor_text =
    Array.init !widest (fun rank -> string_of_int (Spec.minor_of_rank rank))
  in
  (* per shaped link: its header (and root qdisc) lines, and the fixed
     text around the variable fields of its class lines:
       <cls>M htb rate Rmbit ceil Rmbit\n<qdisc>M handle M<filter>H fw flowid 1:M\n *)
  let root = match scope with Full -> true | Tenant _ -> false in
  let head = Array.make n_shaped "" and cls = Array.make n_shaped "" in
  let qdisc = Array.make n_shaped "" and filter = Array.make n_shaped "" in
  let shaping_len = ref 0 in
  for i = 0 to n_shaped - 1 do
    let eid = classes.edges.(i) in
    let u, v = Hmn_graph.Graph.endpoints g eid in
    let link = Cluster.link cluster eid in
    let dev = Spec.port eid in
    let delay = Json.number_to_string link.Link.latency_ms in
    head.(i) <-
      String.concat ""
        ([ "# link e"; string_of_int eid; " u="; string_of_int u; " v=";
           string_of_int v; " cap-mbit="; Json.number_to_string link.Link.bandwidth_mbps;
           " delay-ms="; delay; "\n" ]
        @ if root then [ "tc qdisc add dev "; dev; " root handle 1: htb\n" ] else []);
    cls.(i) <- "tc class add dev " ^ dev ^ " parent 1: classid 1:";
    qdisc.(i) <- "tc qdisc add dev " ^ dev ^ " parent 1:";
    filter.(i) <-
      ": netem delay " ^ delay ^ "ms\ntc filter add dev " ^ dev ^ " parent 1: handle ";
    let fixed =
      String.length cls.(i) + String.length qdisc.(i) + String.length filter.(i)
      + String.length " htb rate mbit ceil mbit\n handle  fw flowid 1:\n"
    in
    shaping_len := !shaping_len + String.length head.(i);
    for j = classes.start.(i) to classes.start.(i + 1) - 1 do
      let vl = classes.vlinks.(j) in
      shaping_len :=
        !shaping_len + fixed
        + (4 * String.length minor_text.(j - classes.start.(i)))
        + (2 * String.length rate_text.(vl))
        + String.length handle_text.(vl)
    done
  done;
  let o = { bytes = Bytes.create (Buffer.length b + !shaping_len); pos = Buffer.length b } in
  Buffer.blit b 0 o.bytes 0 o.pos;
  for i = 0 to n_shaped - 1 do
    put o head.(i);
    let cls = cls.(i) and qdisc = qdisc.(i) and filter = filter.(i) in
    let s = classes.start.(i) in
    for j = s to classes.start.(i + 1) - 1 do
      let vl = classes.vlinks.(j) in
      let minor = minor_text.(j - s) and rate = rate_text.(vl) in
      put o cls;
      put o minor;
      put o " htb rate ";
      put o rate;
      put o "mbit ceil ";
      put o rate;
      put o "mbit\n";
      put o qdisc;
      put o minor;
      put o " handle ";
      put o minor;
      put o filter;
      put o handle_text.(vl);
      put o " fw flowid 1:";
      put o minor;
      put o "\n"
    done
  done;
  assert (o.pos = Bytes.length o.bytes);
  Bytes.unsafe_to_string o.bytes

(* ---- JSON emission ---- *)

(* A JSON file: the document, pretty-printed, and a final newline. *)
let json_file json =
  let b = Buffer.create 4096 in
  Json.to_buffer ~pretty:true b json;
  Buffer.add_char b '\n';
  Buffer.contents b

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
                         ("iface", Json.str (Spec.iface g));
                       ])
                   guests) );
          ])
      launches
  in
  json_file
    (Json.Obj
       ([
          ("format", Json.str "hmn-artifact-vms");
          ("schema_version", Json.int Spec.schema_version);
        ]
       @ scope_fields scope
       @ [ ("hosts", Json.Arr hosts) ]))

let emit_net_json ~scope ~cluster ~venv ~guests_at ~launches ~classes =
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
                  (List.map Json.str (bridge_ports ~cluster ~guests_at node)) );
            ])
    | Tenant _ ->
      List.map
        (fun (host, guests) ->
          Json.Obj
            [
              ("node", Json.int host);
              ("kind", Json.str "host");
              ("name", Json.str (bridge_of_node cluster host));
              ("ports", Json.Arr (List.map (fun g -> Json.str (Spec.iface g)) guests));
            ])
        launches
  in
  let links =
    List.init (Array.length classes.edges) (fun i ->
        let eid = classes.edges.(i) in
        let u, v = Hmn_graph.Graph.endpoints (Cluster.graph cluster) eid in
        let link = Cluster.link cluster eid in
        let s = classes.start.(i) in
        Json.Obj
          [
            ("edge", Json.int eid);
            ("u", Json.int u);
            ("v", Json.int v);
            ("capacity_mbps", Json.float link.Link.bandwidth_mbps);
            ("delay_ms", Json.float link.Link.latency_ms);
            ( "classes",
              Json.Arr
                (List.init (classes.start.(i + 1) - s) (fun rank ->
                     let vl = classes.vlinks.(s + rank) in
                     Json.Obj
                       [
                         ("minor", Json.int (Spec.minor_of_rank rank));
                         ("vlink", Json.int vl);
                         ("rate_mbps", Json.float (Venv.vlink venv vl).Vlink.bandwidth_mbps);
                         ("delay_ms", Json.float link.Link.latency_ms);
                       ])) );
          ])
  in
  json_file
    (Json.Obj
       ([
          ("format", Json.str "hmn-artifact-net");
          ("schema_version", Json.int Spec.schema_version);
        ]
       @ scope_fields scope
       @ [ ("bridges", Json.Arr bridges); ("links", Json.Arr links) ]))

(* ---- manifest ---- *)

(* Written member by member into one buffer: each small member printed
   from its tree at depth 1, the embedded instance ([payload], a key and
   the writer of its text at depth 1) straight from the values. The
   bytes are those of the whole document printed as one tree. *)
let manifest ~scope ~format ~vmm ~cluster ~venv ~launches ~classes ~payload ~files =
  (* an embedded guest, node or link takes about 150-210 bytes: sized
     so the buffer rarely regrows *)
  let entries =
    Venv.n_guests venv + Venv.n_vlinks venv
    + (match scope with
      | Full -> Cluster.n_nodes cluster + Hmn_graph.Graph.n_edges (Cluster.graph cluster)
      | Tenant _ -> 0)
  in
  let b = Buffer.create (4096 + (200 * entries)) in
  let first = ref true in
  let key k =
    Buffer.add_char b (if !first then '{' else ',');
    first := false;
    Json.add_indent b 1;
    Json.add_key b k
  in
  let member (k, v) =
    key k;
    Json.to_buffer ~pretty:true ~level:1 b v
  in
  List.iter member
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
              ("shaped_links", Json.int (Array.length classes.edges));
              ("classes", Json.int (Array.length classes.vlinks));
            ] );
        (* the slack Artifact_check grants on per-link rate sums:
           the ledger tolerance times (vlinks + 1), mirroring
           Validator.residual_tolerance *)
        ( "tolerance_mbps",
          Json.float (Residual.tolerance *. float_of_int (Venv.n_vlinks venv + 1)) );
      ]);
  let payload_key, write_payload = payload in
  key payload_key;
  write_payload b;
  member
    ( "files",
      Json.Arr
        (List.map
           (fun (name, content) ->
             Json.Obj
               [ ("name", Json.str name); ("bytes", Json.int (String.length content)) ])
           files) );
  Json.add_indent b 0;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* ---- entry points ---- *)

let emit ?(vmm = Vmm.xen_like) ~format ~scope ~cluster ~venv ~host_of ~path_of
    ~payload () =
  let guests_at = guests_by_node ~cluster ~venv ~host_of in
  (* host id -> its guests; hosts ascending, only hosts that run at
     least one guest *)
  let launches = nonempty guests_at in
  let classes = classes_by_edge ~cluster ~venv ~path_of in
  let vms, net =
    match format with
    | Spec.Shell ->
      ( emit_vms_shell ~scope ~vmm ~cluster ~venv ~launches,
        emit_net_shell ~scope ~cluster ~venv ~guests_at ~launches ~classes )
    | Spec.Json ->
      ( emit_vms_json ~scope ~vmm ~cluster ~venv ~launches,
        emit_net_json ~scope ~cluster ~venv ~guests_at ~launches ~classes )
  in
  let files =
    [ (Spec.vms_file format, vms); (Spec.net_file format, net) ]
  in
  let manifest =
    manifest ~scope ~format ~vmm ~cluster ~venv ~launches ~classes ~payload ~files
  in
  { format; files = (Spec.manifest_file, manifest) :: files }

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
    ~payload:("problem", fun b -> Hmn_io.Codec.problem_to_text ~level:1 b problem)
    ()

let of_tenant ?vmm ~format ~cluster ~venv ~id ~hosts ~paths () =
  if Array.length hosts <> Venv.n_guests venv then
    invalid_arg "Compile.of_tenant: hosts length";
  if Array.length paths <> Venv.n_vlinks venv then
    invalid_arg "Compile.of_tenant: paths length";
  emit ?vmm ~format ~scope:(Tenant id) ~cluster ~venv
    ~host_of:(fun g -> hosts.(g))
    ~path_of:(fun vl -> paths.(vl))
    ~payload:("venv", fun b -> Hmn_io.Codec.venv_to_text ~level:1 b venv)
    ()

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ())
  end

let write ~dir bundle =
  mkdir_p dir;
  List.iter
    (fun (name, content) ->
      let oc = open_out (Filename.concat dir name) in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc content))
    bundle.files
