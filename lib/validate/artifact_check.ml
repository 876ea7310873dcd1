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
module Decompile = Hmn_artifact.Decompile

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
  | Ceil_mismatch of { edge : int; vlink : int; artifact : float; reserved : float }
  | Rate_sum_mismatch of { edge : int; artifact : float; reserved : float }
  | Delay_mismatch of { edge : int; vlink : int; artifact : float; expected : float }
  | Route_delay_mismatch of { vlink : int; artifact : float; expected : float }
  | Manifest_mismatch of string

type report = {
  violations : violation list;
  launches_checked : int;
  classes_checked : int;
}

type expected_manifest = Embeds_problem of Problem.t | Embeds_venv of Venv.t

let ok r = r.violations = []

let is_host_node cluster node =
  node >= 0 && node < Cluster.n_nodes cluster && Cluster.is_host cluster node

let bridge_of cluster node =
  if is_host_node cluster node then Spec.host_bridge node else Spec.switch_bridge node

(* ---- names of the grammar, read without building them ---- *)

let rec same_at s i lit k =
  k = String.length lit
  || String.unsafe_get s (i + k) = String.unsafe_get lit k && same_at s i lit (k + 1)

let has_at s i lit =
  i >= 0 && i + String.length lit <= String.length s && same_at s i lit 0

(* Do the bytes of [s] from [lp] to [i] spell [n], given [m], the
   non-positive mirror of its digits not matched yet? Matched from the
   last digit back, so that [min_int] needs no special case. *)
let rec spells_digits s lp n i m =
  i >= lp
  && String.unsafe_get s i = Char.unsafe_chr (48 - (m mod 10))
  &&
  let m = m / 10 in
  if m <> 0 then spells_digits s lp n (i - 1) m
  else if n < 0 then i - 1 = lp && String.unsafe_get s lp = '-'
  else i = lp

(* Is [s] exactly the name [Spec] gives id [n] with affixes [a]? *)
let spells s (a : Spec.affixes) n =
  let lp = String.length a.prefix in
  let stop = String.length s - String.length a.suffix in
  stop > lp && has_at s 0 a.prefix && has_at s stop a.suffix
  && spells_digits s lp n (stop - 1) (if n > 0 then -n else n)

(* [s.[i .. stop-1]] as decimal digits accumulated onto [acc], or -1 at
   the first other byte *)
let rec digits_value s acc i stop =
  if i = stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> digits_value s ((10 * acc) + Char.code c - 48) (i + 1) stop
    | _ -> -1

(* The id whose name with affixes [a] is [s], if any. *)
let named s (a : Spec.affixes) =
  let lp = String.length a.prefix in
  let stop = String.length s - String.length a.suffix in
  let neg = stop > lp && String.unsafe_get s lp = '-' in
  let d = if neg then lp + 1 else lp in
  if stop <= d || stop - d > 18 || not (has_at s 0 a.prefix && has_at s stop a.suffix)
  then None
  else
    let v = digits_value s 0 d stop in
    let n = if neg then -v else v in
    if v >= 0 && spells s a n then Some n else None

(* The node whose bridge [name] is, with whether it names a host bridge. *)
let bridge_node name =
  match named name Spec.host_bridge_affixes with
  | Some n -> Some (true, n)
  | None -> Option.map (fun n -> (false, n)) (named name Spec.switch_bridge_affixes)

let spells_bridge cluster name node =
  spells name
    (if is_host_node cluster node then Spec.host_bridge_affixes
     else Spec.switch_bridge_affixes)
    node

(* ---- the embedded instance ---- *)

(* Do the [k] bytes of [scratch] equal [s.[off .. off + k - 1]]?
   Eight bytes a step. *)
let rec same_bytes scratch s off i k =
  if i + 8 <= k then
    Bytes.get_int64_ne scratch i = String.get_int64_ne s (off + i)
    && same_bytes scratch s off (i + 8) k
  else
    i = k
    || Bytes.unsafe_get scratch i = String.unsafe_get s (off + i)
       && same_bytes scratch s off (i + 1) k

let block = 65536

(* Is the text [write] writes exactly [e]'s bytes? Compared as it is
   written: whenever a block has gathered, it is matched against the
   next bytes of the range and dropped, so the text is never held
   whole, and the first block that differs stops the writer. *)
let text_matches write (e : Decompile.embedded) =
  let s = e.Decompile.manifest and stop = e.Decompile.start + e.Decompile.len in
  let at = ref e.Decompile.start in
  let scratch = Bytes.create block in
  let consume buf =
    let n = Buffer.length buf in
    if !at + n > stop then raise Exit;
    let rec same pos =
      pos >= n
      ||
      let k = min block (n - pos) in
      Buffer.blit buf pos scratch 0 k;
      same_bytes scratch s (!at + pos) 0 k && same (pos + k)
    in
    if not (same 0) then raise Exit;
    at := !at + n;
    Buffer.clear buf
  in
  let buf = Buffer.create (2 * block) in
  match
    write ~flush:(fun buf -> if Buffer.length buf >= block then consume buf) buf;
    consume buf
  with
  | () -> !at = stop
  | exception Exit -> false

(* The embedded instance matches when it prints as the canonical tree
   would. Its bytes are first compared with the canonical text, written
   at the depth the compiler embeds it (1): equal bytes parse to a tree
   that prints alike, since the printer is lossless on the finite
   numbers [Problem.make] admits. Only other bytes (a re-indented
   manifest, a tampered value) are parsed and compared as trees, with
   [Json.equal], so the verdict is the tree comparison's on every
   input. *)
let manifest_matches expected (e : Decompile.embedded) =
  let write, tree =
    match expected with
    | Embeds_problem p ->
      ( (fun ~flush buf -> Hmn_io.Codec.problem_to_text ~flush ~level:1 buf p),
        fun () -> Hmn_io.Codec.problem_to_json p )
    | Embeds_venv v ->
      ( (fun ~flush buf -> Hmn_io.Codec.venv_to_text ~flush ~level:1 buf v),
        fun () -> Hmn_io.Codec.venv_to_json v )
  in
  text_matches write e
  ||
  match
    Json.of_string (String.sub e.Decompile.manifest e.Decompile.start e.Decompile.len)
  with
  | Error _ -> false
  | Ok embedded -> Json.equal embedded (tree ())

let check_view ~cluster ~venv ~host_of ~path_of ?expect_manifest
    (d : Decompile.t) =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  if d.Decompile.schema_version <> Spec.schema_version then
    add
      (Schema_mismatch
         { expected = Spec.schema_version; found = d.Decompile.schema_version });
  let g = Cluster.graph cluster in
  let n_edges = Hmn_graph.Graph.n_edges g in
  let n_guests = Venv.n_guests venv in
  let n_vlinks = Venv.n_vlinks venv in
  let host = Array.init n_guests host_of in

  (* --- launches: every guest exactly once, where placed, at its demand --- *)
  let seen = Array.make n_guests 0 in
  List.iter
    (fun (vm : Decompile.vm) ->
      if vm.guest < 0 || vm.guest >= n_guests then add (Unknown_guest vm.guest)
      else begin
        seen.(vm.guest) <- seen.(vm.guest) + 1;
        if seen.(vm.guest) = 2 then add (Guest_duplicated vm.guest);
        let mapped = host.(vm.guest) in
        if vm.host <> mapped then
          add
            (Guest_misplaced
               { guest = vm.guest; launched_on = vm.host; mapped_to = mapped });
        let dem = (Venv.guest venv vm.guest).Guest.demand in
        (* the grammar is numerically lossless, so exact comparison *)
        let guest = vm.guest in
        if vm.mem_mb <> dem.Resources.mem_mb then
          add
            (Guest_resources_mismatch
               { guest; component = "mem_mb"; artifact = vm.mem_mb; demand = dem.Resources.mem_mb });
        if vm.stor_gb <> dem.Resources.stor_gb then
          add
            (Guest_resources_mismatch
               { guest; component = "stor_gb"; artifact = vm.stor_gb; demand = dem.Resources.stor_gb });
        if vm.cpu_mips <> dem.Resources.mips then
          add
            (Guest_resources_mismatch
               { guest; component = "mips"; artifact = vm.cpu_mips; demand = dem.Resources.mips });
        if not (spells vm.iface Spec.iface_affixes vm.guest) then
          add (Iface_mismatch { guest = vm.guest; field = "iface"; found = vm.iface });
        if not (spells_bridge cluster vm.bridge mapped) then
          add
            (Iface_mismatch { guest = vm.guest; field = "bridge"; found = vm.bridge })
      end)
    d.Decompile.vms;
  for g = 0 to n_guests - 1 do
    if seen.(g) = 0 then add (Guest_missing g)
  done;

  (* --- bridge ports, by id: a guest's vif on its host's bridge, a
     link's port on each end's bridge --- *)
  let vif_ok = Array.make n_guests false in
  let u_port_ok = Array.make n_edges false and v_port_ok = Array.make n_edges false in
  List.iter
    (fun (b : Decompile.bridge) ->
      match bridge_node b.bridge_name with
      | None -> ()
      | Some (is_host_bridge, node) ->
        let on node' = node' = node && is_host_node cluster node' = is_host_bridge in
        List.iter
          (fun port ->
            match named port Spec.iface_affixes with
            | Some guest when guest >= 0 && guest < n_guests ->
              if on host.(guest) then vif_ok.(guest) <- true
            | Some _ -> ()
            | None -> (
              match named port Spec.port_affixes with
              | Some e when e >= 0 && e < n_edges ->
                let u, v = Hmn_graph.Graph.endpoints g e in
                if on u then u_port_ok.(e) <- true;
                if on v then v_port_ok.(e) <- true
              | _ -> ()))
          b.ports)
    d.Decompile.bridges;
  for g = 0 to n_guests - 1 do
    if not vif_ok.(g) then
      add (Port_missing { bridge = bridge_of cluster host.(g); port = Spec.iface g })
  done;

  (* --- expected shaping, re-derived from the routes: edge -> its
     routed virtual links as a CSR, two passes over the links in
     ascending order, so each edge's links come out in minor order.
     [bucket.(eid)] is the edge's row, -1 when it carries nothing. --- *)
  let count = Array.make n_edges 0 in
  for vl = 0 to n_vlinks - 1 do
    let edges = (path_of vl).Path.edges in
    for i = 0 to Array.length edges - 1 do
      count.(edges.(i)) <- count.(edges.(i)) + 1
    done
  done;
  let n_rows = Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 count in
  let row_edge = Array.make n_rows 0 and start = Array.make (n_rows + 1) 0 in
  let bucket = Array.make n_edges (-1) in
  let total = ref 0 and row = ref 0 in
  Array.iteri
    (fun eid c ->
      if c > 0 then begin
        row_edge.(!row) <- eid;
        bucket.(eid) <- !row;
        start.(!row) <- !total;
        count.(eid) <- !total;
        total := !total + c;
        incr row
      end)
    count;
  start.(n_rows) <- !total;
  let row_vlinks = Array.make !total 0 in
  let routed = Array.make n_vlinks false in
  for vl = 0 to n_vlinks - 1 do
    let edges = (path_of vl).Path.edges in
    routed.(vl) <- Array.length edges > 0;
    for i = 0 to Array.length edges - 1 do
      let eid = edges.(i) in
      row_vlinks.(count.(eid)) <- vl;
      count.(eid) <- count.(eid) + 1
    done
  done;

  (* per link entry [li]: each expected vlink's rank on the link, and
     the vlinks whose class was seen, as stamps; each vlink's summed
     netem delay over the whole bundle *)
  let rank_stamp = Array.make n_vlinks (-1) and rank = Array.make n_vlinks 0 in
  let seen_stamp = Array.make n_vlinks (-1) in
  let route_delay = Array.make n_vlinks 0. in
  let covered = Array.make n_rows false in
  let cls = d.Decompile.classes in
  let classes_checked = ref 0 in
  let slack = Residual.tolerance *. float_of_int (n_vlinks + 1) in
  List.iteri
    (fun li (l : Decompile.shaped_link) ->
      let r = if l.edge >= 0 && l.edge < n_edges then bucket.(l.edge) else -1 in
      if r < 0 then add (Link_unknown l.edge)
      else begin
        covered.(r) <- true;
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
          let u, v = Hmn_graph.Graph.endpoints g l.edge in
          if not u_port_ok.(l.edge) then
            add (Port_missing { bridge = bridge_of cluster u; port = Spec.port l.edge });
          if not v_port_ok.(l.edge) then
            add (Port_missing { bridge = bridge_of cluster v; port = Spec.port l.edge })
        | Decompile.Tenant _ -> ());
        (* minors follow ascending-vlink rank *)
        for k = start.(r) to start.(r + 1) - 1 do
          let vl = row_vlinks.(k) in
          rank_stamp.(vl) <- li;
          rank.(vl) <- k - start.(r)
        done;
        let art_sum = ref 0. in
        for j = l.first_class to l.first_class + l.n_classes - 1 do
          incr classes_checked;
          let vl = cls.Decompile.vlink.(j) in
          let delay = cls.Decompile.delay_ms.(j) in
          art_sum := !art_sum +. cls.Decompile.rate_mbps.(j);
          if vl >= 0 && vl < n_vlinks then route_delay.(vl) <- delay +. route_delay.(vl);
          if vl < 0 || vl >= n_vlinks || rank_stamp.(vl) <> li then
            add (Class_unknown { edge = l.edge; vlink = vl })
          else if seen_stamp.(vl) = li then
            add (Class_duplicated { edge = l.edge; vlink = vl })
          else begin
            seen_stamp.(vl) <- li;
            let minor = Spec.minor_of_rank rank.(vl) in
            let reserved = (Venv.vlink venv vl).Vlink.bandwidth_mbps in
            let c_minor = cls.Decompile.minor.(j) in
            if c_minor <> minor then
              add
                (Class_id_mismatch
                   { edge = l.edge; vlink = vl; minor = c_minor; expected = minor });
            let rate = cls.Decompile.rate_mbps.(j) in
            if rate <> reserved then
              add (Rate_mismatch { edge = l.edge; vlink = vl; artifact = rate; reserved });
            let ceil = cls.Decompile.ceil_mbps.(j) in
            if ceil <> reserved then
              add (Ceil_mismatch { edge = l.edge; vlink = vl; artifact = ceil; reserved });
            if delay <> link.Link.latency_ms then
              add
                (Delay_mismatch
                   {
                     edge = l.edge;
                     vlink = vl;
                     artifact = delay;
                     expected = link.Link.latency_ms;
                   })
          end
        done;
        let reserved_sum = ref 0. in
        for k = start.(r) to start.(r + 1) - 1 do
          let vl = row_vlinks.(k) in
          if seen_stamp.(vl) <> li then add (Class_missing { edge = l.edge; vlink = vl });
          reserved_sum := !reserved_sum +. (Venv.vlink venv vl).Vlink.bandwidth_mbps
        done;
        (* per-link rate sum vs the Networking reservation, within the
           ledger tolerance (each reserve drifts ≤ Residual.tolerance) *)
        if Float.abs (!art_sum -. !reserved_sum) > slack then
          add
            (Rate_sum_mismatch
               { edge = l.edge; artifact = !art_sum; reserved = !reserved_sum })
      end)
    d.Decompile.links;
  Array.iteri (fun r eid -> if not covered.(r) then add (Link_missing eid)) row_edge;

  (* --- end-to-end: each route's netem stages sum to the route latency --- *)
  for vl = 0 to n_vlinks - 1 do
    if routed.(vl) then begin
      let edges = (path_of vl).Path.edges in
      let expected_delay = ref 0. in
      for i = 0 to Array.length edges - 1 do
        expected_delay := !expected_delay +. (Cluster.link cluster edges.(i)).Link.latency_ms
      done;
      let expected_delay = !expected_delay in
      let artifact = route_delay.(vl) in
      (* summation order differs between route order and artifact order *)
      let slack = 1e-9 *. (1. +. Float.abs expected_delay) in
      if Float.abs (artifact -. expected_delay) > slack then
        add (Route_delay_mismatch { vlink = vl; artifact; expected = expected_delay })
    end
  done;

  (* --- manifest ties the artifacts to the instance --- *)
  (match expect_manifest with
  | None -> ()
  | Some expected -> (
    let embedded =
      match d.Decompile.scope with
      | Decompile.Full -> d.Decompile.problem
      | Decompile.Tenant _ -> d.Decompile.venv
    in
    match embedded with
    | None -> add (Manifest_mismatch "embedded problem/venv missing")
    | Some e ->
      if not (manifest_matches expected e) then
        add (Manifest_mismatch "embedded instance differs from canonical serialization")));

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
    ~expect_manifest:(Embeds_problem problem)
    d

let check_tenant ~cluster ~venv ~hosts ~paths d =
  check_view ~cluster ~venv
    ~host_of:(fun g -> hosts.(g))
    ~path_of:(fun vl -> paths.(vl))
    ~expect_manifest:(Embeds_venv venv)
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
  | Ceil_mismatch _ -> "ceil-mismatch"
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
  | Ceil_mismatch { edge; vlink; artifact; reserved } ->
    f ppf "link e%d vlink %d: ceil %g Mbps, reserved %g" edge vlink artifact reserved
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
