(* The artifact checker as it was before it ran on flat arrays: a
   Hashtbl of per-edge class lists sorted per edge, per-link Hashtbls of
   minors and seen marks, a Hashtbl of summed route delays, and port
   presence through a Hashtbl of Hashtbls of strings. It reads the
   bundle as decompiled by reference_decompile.ml. Retained verbatim
   (only the Decompile alias below is changed) as the oracle for the
   differential property in test_artifact.ml. Do not "improve" this
   file — its value is that it is the old checker. *)

module Cluster = Hmn_testbed.Cluster
module Link = Hmn_testbed.Link
module Venv = Hmn_vnet.Virtual_env
module Guest = Hmn_vnet.Guest
module Vlink = Hmn_vnet.Vlink
module Resources = Hmn_testbed.Resources
module Path = Hmn_routing.Path
module Residual = Hmn_routing.Residual
module Mapping = Hmn_mapping.Mapping
module Placement = Hmn_mapping.Placement
module Link_map = Hmn_mapping.Link_map
module Problem = Hmn_mapping.Problem
module Json = Hmn_prelude.Json
module Spec = Hmn_artifact.Spec
module Decompile = Reference_decompile

type violation =
  | Schema_mismatch of { expected : int; found : int }
  | Guest_missing of int
  | Guest_duplicated of int
  | Unknown_guest of int
  | Guest_misplaced of { guest : int; launched_on : int; mapped_to : int }
  | Guest_resources_mismatch of {
      guest : int;
      component : string;
      artifact : float;
      demand : float;
    }
  | Iface_mismatch of { guest : int; field : string; found : string }
  | Port_missing of { bridge : string; port : string }
  | Link_missing of int
  | Link_unknown of int
  | Link_meta_mismatch of {
      edge : int;
      field : string;
      artifact : float;
      expected : float;
    }
  | Class_missing of { edge : int; vlink : int }
  | Class_unknown of { edge : int; vlink : int }
  | Class_duplicated of { edge : int; vlink : int }
  | Class_id_mismatch of { edge : int; vlink : int; minor : int; expected : int }
  | Rate_mismatch of { edge : int; vlink : int; artifact : float; reserved : float }
  | Rate_sum_mismatch of { edge : int; artifact : float; reserved : float }
  | Delay_mismatch of { edge : int; vlink : int; artifact : float; expected : float }
  | Route_delay_mismatch of { vlink : int; artifact : float; expected : float }
  | Manifest_mismatch of string

type report = {
  violations : violation list;
  launches_checked : int;
  classes_checked : int;
}

let ok r = r.violations = []

let bridge_of cluster node =
  if node >= 0 && node < Cluster.n_nodes cluster && Cluster.is_host cluster node
  then Spec.host_bridge node
  else Spec.switch_bridge node

let check_view ~cluster ~venv ~host_of ~path_of ?expect_manifest
    (d : Decompile.t) =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  if d.Decompile.schema_version <> Spec.schema_version then
    add
      (Schema_mismatch
         { expected = Spec.schema_version; found = d.Decompile.schema_version });

  (* --- launches: every guest exactly once, where placed, at its demand --- *)
  let n_guests = Venv.n_guests venv in
  let seen = Array.make (max n_guests 1) 0 in
  List.iter
    (fun (vm : Decompile.vm) ->
      if vm.guest < 0 || vm.guest >= n_guests then add (Unknown_guest vm.guest)
      else begin
        seen.(vm.guest) <- seen.(vm.guest) + 1;
        if seen.(vm.guest) = 2 then add (Guest_duplicated vm.guest);
        let mapped = host_of vm.guest in
        if vm.host <> mapped then
          add
            (Guest_misplaced
               { guest = vm.guest; launched_on = vm.host; mapped_to = mapped });
        let dem = (Venv.guest venv vm.guest).Guest.demand in
        (* the grammar is numerically lossless, so exact comparison *)
        let res component artifact demand =
          if artifact <> demand then
            add (Guest_resources_mismatch { guest = vm.guest; component; artifact; demand })
        in
        res "mem_mb" vm.mem_mb dem.Resources.mem_mb;
        res "stor_gb" vm.stor_gb dem.Resources.stor_gb;
        res "mips" vm.cpu_mips dem.Resources.mips;
        if vm.iface <> Spec.iface vm.guest then
          add (Iface_mismatch { guest = vm.guest; field = "iface"; found = vm.iface });
        let expected_bridge = bridge_of cluster mapped in
        if vm.bridge <> expected_bridge then
          add
            (Iface_mismatch { guest = vm.guest; field = "bridge"; found = vm.bridge })
      end)
    d.Decompile.vms;
  for g = 0 to n_guests - 1 do
    if seen.(g) = 0 then add (Guest_missing g)
  done;

  (* --- bridge ports --- *)
  let ports_tbl = Hashtbl.create 1024 in
  List.iter
    (fun (b : Decompile.bridge) ->
      let set =
        match Hashtbl.find_opt ports_tbl b.bridge_name with
        | Some set -> set
        | None ->
          let set = Hashtbl.create 16 in
          Hashtbl.replace ports_tbl b.bridge_name set;
          set
      in
      List.iter (fun p -> Hashtbl.replace set p ()) b.ports)
    d.Decompile.bridges;
  let require_port bridge port =
    let present =
      match Hashtbl.find_opt ports_tbl bridge with
      | Some set -> Hashtbl.mem set port
      | None -> false
    in
    if not present then add (Port_missing { bridge; port })
  in
  for g = 0 to n_guests - 1 do
    require_port (bridge_of cluster (host_of g)) (Spec.iface g)
  done;

  (* --- expected shaping, re-derived from the routes --- *)
  let n_vlinks = Venv.n_vlinks venv in
  let expected = Hashtbl.create 256 in
  (* eid -> (vlink, rate) list, reverse discovery order for now *)
  let routed = Array.make (max n_vlinks 1) false in
  for vl = 0 to n_vlinks - 1 do
    let p = path_of vl in
    if not (Path.is_intra_host p) then begin
      routed.(vl) <- true;
      let rate = (Venv.vlink venv vl).Vlink.bandwidth_mbps in
      Path.iter_edges p (fun eid ->
          Hashtbl.replace expected eid
            ((vl, rate)
            :: Option.value (Hashtbl.find_opt expected eid) ~default:[]))
    end
  done;
  let expected =
    Hashtbl.fold
      (fun eid cls acc ->
        (eid, List.sort (fun (a, _) (b, _) -> Int.compare a b) cls) :: acc)
      expected []
  in
  let expected_tbl = Hashtbl.create 256 in
  List.iter (fun (eid, cls) -> Hashtbl.replace expected_tbl eid cls) expected;

  let classes_checked = ref 0 in
  let covered_edges = Hashtbl.create 256 in
  let art_route_delay = Hashtbl.create 256 in
  (* vlink -> summed netem delay *)
  List.iter
    (fun (l : Decompile.shaped_link) ->
      match Hashtbl.find_opt expected_tbl l.edge with
      | None -> add (Link_unknown l.edge)
      | Some exp_classes ->
        Hashtbl.replace covered_edges l.edge ();
        let link = Cluster.link cluster l.edge in
        if l.capacity_mbps <> link.Link.bandwidth_mbps then
          add
            (Link_meta_mismatch
               {
                 edge = l.edge;
                 field = "capacity_mbps";
                 artifact = l.capacity_mbps;
                 expected = link.Link.bandwidth_mbps;
               });
        if l.link_delay_ms <> link.Link.latency_ms then
          add
            (Link_meta_mismatch
               {
                 edge = l.edge;
                 field = "delay_ms";
                 artifact = l.link_delay_ms;
                 expected = link.Link.latency_ms;
               });
        (match d.Decompile.scope with
        | Decompile.Full ->
          let u, v =
            Hmn_graph.Graph.endpoints (Cluster.graph cluster) l.edge
          in
          require_port (bridge_of cluster u) (Spec.port l.edge);
          require_port (bridge_of cluster v) (Spec.port l.edge)
        | Decompile.Tenant _ -> ());
        (* minors follow ascending-vlink rank *)
        let minor_of = Hashtbl.create 16 in
        List.iteri
          (fun rank (vl, rate) ->
            Hashtbl.replace minor_of vl (Spec.minor_of_rank rank, rate))
          exp_classes;
        let seen_vl = Hashtbl.create 16 in
        List.iter
          (fun (c : Decompile.cls) ->
            incr classes_checked;
            Hashtbl.replace art_route_delay c.vlink
              (c.delay_ms
              +. Option.value
                   (Hashtbl.find_opt art_route_delay c.vlink)
                   ~default:0.);
            match Hashtbl.find_opt minor_of c.vlink with
            | None -> add (Class_unknown { edge = l.edge; vlink = c.vlink })
            | Some (minor, rate) ->
              if Hashtbl.mem seen_vl c.vlink then
                add (Class_duplicated { edge = l.edge; vlink = c.vlink })
              else begin
                Hashtbl.replace seen_vl c.vlink ();
                if c.minor <> minor then
                  add
                    (Class_id_mismatch
                       { edge = l.edge; vlink = c.vlink; minor = c.minor; expected = minor });
                if c.rate_mbps <> rate then
                  add
                    (Rate_mismatch
                       { edge = l.edge; vlink = c.vlink; artifact = c.rate_mbps; reserved = rate });
                if c.delay_ms <> link.Link.latency_ms then
                  add
                    (Delay_mismatch
                       {
                         edge = l.edge;
                         vlink = c.vlink;
                         artifact = c.delay_ms;
                         expected = link.Link.latency_ms;
                       })
              end)
          l.classes;
        List.iter
          (fun (vl, _) ->
            if not (Hashtbl.mem seen_vl vl) then
              add (Class_missing { edge = l.edge; vlink = vl }))
          exp_classes;
        (* per-link rate sum vs the Networking reservation, within the
           ledger tolerance (each reserve drifts ≤ Residual.tolerance) *)
        let art_sum =
          List.fold_left (fun acc (c : Decompile.cls) -> acc +. c.rate_mbps) 0.
            l.classes
        in
        let reserved_sum =
          List.fold_left (fun acc (_, r) -> acc +. r) 0. exp_classes
        in
        let slack = Residual.tolerance *. float_of_int (n_vlinks + 1) in
        if Float.abs (art_sum -. reserved_sum) > slack then
          add
            (Rate_sum_mismatch
               { edge = l.edge; artifact = art_sum; reserved = reserved_sum }))
    d.Decompile.links;
  List.iter
    (fun (eid, _) ->
      if not (Hashtbl.mem covered_edges eid) then add (Link_missing eid))
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) expected);

  (* --- end-to-end: each route's netem stages sum to the route latency --- *)
  for vl = 0 to n_vlinks - 1 do
    if routed.(vl) then begin
      let expected_delay = Path.total_latency cluster (path_of vl) in
      let artifact =
        Option.value (Hashtbl.find_opt art_route_delay vl) ~default:0.
      in
      (* summation order differs between route order and artifact order *)
      let slack = 1e-9 *. (1. +. Float.abs expected_delay) in
      if Float.abs (artifact -. expected_delay) > slack then
        add (Route_delay_mismatch { vlink = vl; artifact; expected = expected_delay })
    end
  done;

  (* --- manifest ties the artifacts to the instance --- *)
  (match expect_manifest with
  | None -> ()
  | Some canonical ->
    let embedded =
      match d.Decompile.scope with
      | Decompile.Full -> d.Decompile.problem
      | Decompile.Tenant _ -> d.Decompile.venv
    in
    (match embedded with
    | None -> add (Manifest_mismatch "embedded problem/venv missing")
    | Some e ->
      if not (Json.equal e canonical) then
        add
          (Manifest_mismatch
             "embedded instance differs from canonical serialization")));

  {
    violations = List.rev !violations;
    launches_checked = List.length d.Decompile.vms;
    classes_checked = !classes_checked;
  }

let check ~mapping d =
  let problem = Mapping.problem mapping in
  let host_of g =
    Option.value
      (Placement.host_of mapping.Mapping.placement ~guest:g)
      ~default:(-1)
  in
  let path_of vl =
    match Link_map.path_of mapping.Mapping.link_map ~vlink:vl with
    | Some p -> p
    | None ->
      (* an unrouted link contributes no expected shaping; any class the
         artifacts claim for it then reads as Class_unknown *)
      Path.trivial 0
  in
  check_view ~cluster:problem.Problem.cluster ~venv:problem.Problem.venv
    ~host_of ~path_of
    ~expect_manifest:(Hmn_io.Codec.problem_to_json problem)
    d

let check_tenant ~cluster ~venv ~hosts ~paths d =
  check_view ~cluster ~venv
    ~host_of:(fun g -> hosts.(g))
    ~path_of:(fun vl -> paths.(vl))
    ~expect_manifest:(Hmn_io.Codec.venv_to_json venv)
    d

let violation_label = function
  | Schema_mismatch _ -> "schema-mismatch"
  | Guest_missing _ -> "guest-missing"
  | Guest_duplicated _ -> "guest-duplicated"
  | Unknown_guest _ -> "unknown-guest"
  | Guest_misplaced _ -> "guest-misplaced"
  | Guest_resources_mismatch _ -> "guest-resources-mismatch"
  | Iface_mismatch _ -> "iface-mismatch"
  | Port_missing _ -> "port-missing"
  | Link_missing _ -> "link-missing"
  | Link_unknown _ -> "link-unknown"
  | Link_meta_mismatch _ -> "link-meta-mismatch"
  | Class_missing _ -> "class-missing"
  | Class_unknown _ -> "class-unknown"
  | Class_duplicated _ -> "class-duplicated"
  | Class_id_mismatch _ -> "class-id-mismatch"
  | Rate_mismatch _ -> "rate-mismatch"
  | Rate_sum_mismatch _ -> "rate-sum-mismatch"
  | Delay_mismatch _ -> "delay-mismatch"
  | Route_delay_mismatch _ -> "route-delay-mismatch"
  | Manifest_mismatch _ -> "manifest-mismatch"

let pp_violation ppf v =
  let f = Format.fprintf in
  match v with
  | Schema_mismatch { expected; found } ->
    f ppf "schema version %d, grammar is %d" found expected
  | Guest_missing g -> f ppf "guest %d placed but never launched" g
  | Guest_duplicated g -> f ppf "guest %d launched more than once" g
  | Unknown_guest g -> f ppf "launch for unknown guest %d" g
  | Guest_misplaced { guest; launched_on; mapped_to } ->
    f ppf "guest %d launched on host %d, mapped to %d" guest launched_on mapped_to
  | Guest_resources_mismatch { guest; component; artifact; demand } ->
    f ppf "guest %d %s: artifact %g, demand %g" guest component artifact demand
  | Iface_mismatch { guest; field; found } ->
    f ppf "guest %d %s is %S, off the grammar" guest field found
  | Port_missing { bridge; port } -> f ppf "port %s missing on %s" port bridge
  | Link_missing e -> f ppf "link e%d carries traffic but has no shaping" e
  | Link_unknown e -> f ppf "shaping for link e%d which carries nothing" e
  | Link_meta_mismatch { edge; field; artifact; expected } ->
    f ppf "link e%d %s: artifact %g, cluster %g" edge field artifact expected
  | Class_missing { edge; vlink } ->
    f ppf "link e%d: no class for vlink %d" edge vlink
  | Class_unknown { edge; vlink } ->
    f ppf "link e%d: class for vlink %d which is not routed here" edge vlink
  | Class_duplicated { edge; vlink } ->
    f ppf "link e%d: duplicated class for vlink %d" edge vlink
  | Class_id_mismatch { edge; vlink; minor; expected } ->
    f ppf "link e%d vlink %d: classid 1:%d, expected 1:%d" edge vlink minor expected
  | Rate_mismatch { edge; vlink; artifact; reserved } ->
    f ppf "link e%d vlink %d: rate %g Mbps, reserved %g" edge vlink artifact reserved
  | Rate_sum_mismatch { edge; artifact; reserved } ->
    f ppf "link e%d: shaped rates sum to %g Mbps, reservations %g" edge artifact
      reserved
  | Delay_mismatch { edge; vlink; artifact; expected } ->
    f ppf "link e%d vlink %d: netem delay %g ms, link latency %g" edge vlink
      artifact expected
  | Route_delay_mismatch { vlink; artifact; expected } ->
    f ppf "vlink %d: netem stages sum to %g ms, route latency %g" vlink artifact
      expected
  | Manifest_mismatch reason -> f ppf "manifest: %s" reason

let pp_report ppf r =
  if ok r then
    Format.fprintf ppf "artifacts faithful (%d launches, %d classes)"
      r.launches_checked r.classes_checked
  else begin
    Format.fprintf ppf "%d violation(s) over %d launches, %d classes:"
      (List.length r.violations) r.launches_checked r.classes_checked;
    List.iter
      (fun v ->
        Format.fprintf ppf "@\n  [%s] %a" (violation_label v) pp_violation v)
      r.violations
  end
