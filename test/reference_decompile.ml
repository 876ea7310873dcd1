(* The artifact decompiler as it was before the net.sh scanner
   dispatched once per line and collected classes in columns: a full
   tokenize and keyword compares on every line, String.sub before every
   number, a [partial] record per class, and no reading of the class
   ceil. Retained verbatim (only the module aliases below are added) as
   the oracle for the differential property in test_artifact.ml,
   together with reference_artifact_check.ml. Do not "improve" this
   file — its value is that it is the old decompiler. *)

module Spec = Hmn_artifact.Spec

module Json = Hmn_prelude.Json

type vm = {
  guest : int;
  name : string;
  host : int;
  mem_mb : float;
  stor_gb : float;
  cpu_mips : float;
  iface : string;
  bridge : string;
}

type cls = { minor : int; vlink : int; rate_mbps : float; delay_ms : float }

type shaped_link = {
  edge : int;
  u : int;
  v : int;
  capacity_mbps : float;
  link_delay_ms : float;
  classes : cls list;
}

type bridge = { bridge_name : string; ports : string list }

type scope = Full | Tenant of int

type t = {
  artifact_format : Spec.format;
  schema_version : int;
  scope : scope;
  vmm_label : string;
  vms : vm list;
  bridges : bridge list;
  links : shaped_link list;
  problem : Json.t option;
  venv : Json.t option;
  counts : (string * int) list;
  tolerance_mbps : float;
}

exception Parse of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse msg)) fmt

(* ---- in-place scanning ----

   The shell grammar is read without splitting the text: a line is a
   [start, stop) range of the file, a token a range of the line, and
   only the tokens a record keeps are copied out. *)

(* [iter_lines ~file text f ~at_end] calls [f line start stop] on every
   non-empty '\n'-separated line, then [at_end line]. [line] counts
   every line from 1; a [Parse] raised by [f] or [at_end] is re-raised
   naming the file and [!line], which they may point at an earlier
   line. *)
let iter_lines ~file text f ~at_end =
  let n = String.length text in
  let line = ref 0 in
  try
    let start = ref 0 in
    while !start < n do
      incr line;
      let stop =
        match String.index_from_opt text !start '\n' with Some i -> i | None -> n
      in
      if stop > !start then f line !start stop;
      start := stop + 1
    done;
    at_end line
  with Parse msg -> fail "%s line %d: %s" file !line msg

(* The ' '-separated tokens of one line, as ranges of [text]. *)
type toks = {
  text : string;
  mutable n : int;
  mutable starts : int array;
  mutable stops : int array;
}

let make_toks text = { text; n = 0; starts = Array.make 16 0; stops = Array.make 16 0 }

let tokenize t start stop =
  t.n <- 0;
  let i = ref start in
  while !i < stop do
    if String.unsafe_get t.text !i = ' ' then incr i
    else begin
      let j = ref !i in
      while !j < stop && String.unsafe_get t.text !j <> ' ' do
        incr j
      done;
      if t.n = Array.length t.starts then begin
        let grow a = Array.append a (Array.make (Array.length a) 0) in
        t.starts <- grow t.starts;
        t.stops <- grow t.stops
      end;
      t.starts.(t.n) <- !i;
      t.stops.(t.n) <- !j;
      t.n <- t.n + 1;
      i := !j
    end
  done

let tok t k = String.sub t.text t.starts.(k) (t.stops.(k) - t.starts.(k))

let rec same_from text start lit i =
  i = String.length lit
  || String.unsafe_get text (start + i) = String.unsafe_get lit i
     && same_from text start lit (i + 1)

(* does [text.[start ..]] begin with [lit], within [stop]? *)
let has_prefix text start stop lit =
  start + String.length lit <= stop && same_from text start lit 0

(* first [c] in [text.[start .. stop-1]] *)
let rec index_in text start stop c =
  if start = stop then None
  else if String.unsafe_get text start = c then Some start
  else index_in text (start + 1) stop c

let tok_is t k lit =
  t.stops.(k) - t.starts.(k) = String.length lit
  && has_prefix t.text t.starts.(k) t.stops.(k) lit

let int_in ctx text start stop =
  let s = String.sub text start (stop - start) in
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail "%s: expected an integer, got %S" ctx s

let float_in ctx text start stop =
  let s = String.sub text start (stop - start) in
  match float_of_string_opt s with
  | Some x -> x
  | None -> fail "%s: expected a number, got %S" ctx s

let int_tok ctx t k = int_in ctx t.text t.starts.(k) t.stops.(k)

(* token [k] minus a known prefix/suffix, e.g. "pe7" -> 7, "25mbit" -> 25 *)
let int_tok_after ctx t k ~prefix =
  let start = t.starts.(k) and stop = t.stops.(k) in
  let np = String.length prefix in
  if stop - start > np && has_prefix t.text start stop prefix then
    int_in ctx t.text (start + np) stop
  else fail "%s: expected %s-prefixed token, got %S" ctx prefix (tok t k)

let float_tok_before ctx t k ~suffix =
  let start = t.starts.(k) and stop = t.stops.(k) in
  let ns = String.length suffix in
  if stop - start > ns && has_prefix t.text (stop - ns) stop suffix then
    float_in ctx t.text start (stop - ns)
  else fail "%s: expected %s-suffixed token, got %S" ctx suffix (tok t k)

(* ---- shell grammar ---- *)

let launch_flags =
  [| "guest"; "name"; "host"; "mem-mb"; "stor-gb"; "cpu-mips"; "iface"; "bridge" |]

let parse_vms_shell content =
  let t = make_toks content in
  let ctx = "vms" in
  (* token index of each launch flag's value, first occurrence wins *)
  let value = Array.make (Array.length launch_flags) (-1) in
  let vms = ref [] in
  iter_lines ~file:(Spec.vms_file Spec.Shell) content ~at_end:ignore (fun _ start stop ->
      if has_prefix content start stop "hmn_vm launch " then begin
        tokenize t start stop;
        Array.fill value 0 (Array.length value) (-1);
        (* "--flag value --flag value ..." after "hmn_vm launch" *)
        let k = ref 2 in
        while !k < t.n do
          let fs = t.starts.(!k) and fe = t.stops.(!k) in
          if !k + 1 < t.n && has_prefix content fs fe "--" then begin
            Array.iteri
              (fun i name ->
                if
                  value.(i) < 0
                  && fe - fs - 2 = String.length name
                  && has_prefix content (fs + 2) fe name
                then value.(i) <- !k + 1)
              launch_flags;
            k := !k + 2
          end
          else fail "%s: malformed flag list at %S" ctx (tok t !k)
        done;
        (* a value's range, its single quotes stripped *)
        let range i =
          let k = value.(i) in
          if k < 0 then fail "%s: missing --%s" ctx launch_flags.(i);
          let a = t.starts.(k) and b = t.stops.(k) in
          if b - a >= 2 && content.[a] = '\'' && content.[b - 1] = '\'' then
            (a + 1, b - 1)
          else (a, b)
        in
        let str i = let a, b = range i in String.sub content a (b - a) in
        let int i = let a, b = range i in int_in ctx content a b in
        let float i = let a, b = range i in float_in ctx content a b in
        let guest = int 0 in
        let name = str 1 in
        let host = int 2 in
        let mem_mb = float 3 in
        let stor_gb = float 4 in
        let cpu_mips = float 5 in
        let iface = str 6 in
        let bridge = str 7 in
        vms := { guest; name; host; mem_mb; stor_gb; cpu_mips; iface; bridge } :: !vms
      end);
  List.rev !vms

(* Partial tc class being assembled from its three lines. *)
type partial = {
  p_minor : int;
  p_rate : float;
  mutable p_delay : float option;
  mutable p_vlink : int option;
}

(* The link block being read: its header, its device name, the header's
   line, and its classes so far, newest first. *)
type block = {
  link : shaped_link;
  dev : string;
  header_line : int;
  mutable partials : partial list;
}

let parse_net_shell content =
  let t = make_toks content in
  (* bridge name -> its ports (reversed), newest bridge of that name;
     [order] keeps every bridge in reverse order *)
  let by_name = Hashtbl.create 1024 in
  let order = ref [] in
  let add_bridge name =
    let ports = ref [] in
    Hashtbl.replace by_name name ports;
    order := (name, ports) :: !order;
    ports
  in
  let links = ref [] in
  let current = ref None in
  (* close the current block; an incomplete class is reported at the
     block's header line *)
  let finalize line =
    match !current with
    | None -> ()
    | Some blk ->
      let classes =
        List.rev_map
          (fun p ->
            let need what = function
              | Some v -> v
              | None ->
                line := blk.header_line;
                fail "net: link e%d class 1:%d missing its %s line" blk.link.edge
                  p.p_minor what
            in
            {
              minor = p.p_minor;
              rate_mbps = p.p_rate;
              delay_ms = need "netem" p.p_delay;
              vlink = need "filter" p.p_vlink;
            })
          blk.partials
      in
      links := { blk.link with classes } :: !links;
      current := None
  in
  (* the block token [k] names as its device *)
  let expect_dev ctx k =
    match !current with
    | Some blk when tok_is t k blk.dev -> blk
    | Some blk ->
      fail "net: %s on dev %s outside its link block (current e%d)" ctx (tok t k)
        blk.link.edge
    | None -> fail "net: %s on dev %s before any # link header" ctx (tok t k)
  in
  let find_partial ctx blk minor pick =
    match List.find_opt pick blk.partials with
    | Some p -> p
    | None -> fail "net: %s for class 1:%d has no matching class" ctx minor
  in
  let is k lit = tok_is t k lit in
  let header line =
    finalize line;
    let ctx = "net link header" in
    if t.n < 3 then fail "%s: empty" ctx;
    (* "k=v k=v ..." after "# link e<id>": each token's '=' position *)
    let eq =
      Array.init (t.n - 3) (fun i ->
          let k = i + 3 in
          match index_in content t.starts.(k) t.stops.(k) '=' with
          | Some e -> e
          | None -> fail "%s: expected key=value, got %S" ctx (tok t k))
    in
    (* the value range of the first [name=] *)
    let kv name =
      let rec find i =
        if i = Array.length eq then fail "%s: missing %s=" ctx name
        else
          let a = t.starts.(i + 3) in
          if eq.(i) - a = String.length name && has_prefix content a eq.(i) name
          then (eq.(i) + 1, t.stops.(i + 3))
          else find (i + 1)
      in
      find 0
    in
    let int_kv name = let a, b = kv name in int_in ctx content a b in
    let float_kv name = let a, b = kv name in float_in ctx content a b in
    let edge = int_tok_after ctx t 2 ~prefix:"e" in
    let u = int_kv "u" in
    let v = int_kv "v" in
    let capacity_mbps = float_kv "cap-mbit" in
    let link_delay_ms = float_kv "delay-ms" in
    current :=
      Some
        {
          link = { edge; u; v; capacity_mbps; link_delay_ms; classes = [] };
          dev = Spec.port edge;
          header_line = !line;
          partials = [];
        }
  in
  iter_lines ~file:(Spec.net_file Spec.Shell) content ~at_end:finalize
    (fun line start stop ->
      tokenize t start stop;
      let n = t.n in
      if n >= 3 && is 0 "ovs-vsctl" then begin
        if n = 3 && is 1 "add-br" then ignore (add_bridge (tok t 2))
        else if n = 4 && is 1 "add-port" then begin
          let br = tok t 2 in
          (* tenant deltas add ports to pre-existing bridges *)
          let ports =
            match Hashtbl.find_opt by_name br with
            | Some ports -> ports
            | None -> add_bridge br
          in
          ports := tok t 3 :: !ports
        end
      end
      else if n >= 2 && is 0 "#" && is 1 "link" then header line
      else if n >= 6 && is 0 "tc" && is 2 "add" && is 3 "dev" then begin
        if is 1 "qdisc" && is 5 "root" then ignore (expect_dev "root qdisc" 4)
        else if
          n >= 12 && is 1 "class" && is 5 "parent" && is 6 "1:" && is 7 "classid"
          && is 9 "htb" && is 10 "rate"
        then begin
          let ctx = "net class" in
          let blk = expect_dev ctx 4 in
          let p_minor = int_tok_after ctx t 8 ~prefix:"1:" in
          let p_rate = float_tok_before ctx t 11 ~suffix:"mbit" in
          blk.partials <-
            { p_minor; p_rate; p_delay = None; p_vlink = None } :: blk.partials
        end
        else if
          n >= 12 && is 1 "qdisc" && is 5 "parent" && is 7 "handle" && is 9 "netem"
          && is 10 "delay"
        then begin
          let ctx = "net netem" in
          let blk = expect_dev ctx 4 in
          let minor = int_tok_after ctx t 6 ~prefix:"1:" in
          let p =
            find_partial ctx blk minor (fun p -> p.p_minor = minor && p.p_delay = None)
          in
          p.p_delay <- Some (float_tok_before ctx t 11 ~suffix:"ms")
        end
        else if
          n >= 12 && is 1 "filter" && is 5 "parent" && is 6 "1:" && is 7 "handle"
          && is 9 "fw" && is 10 "flowid"
        then begin
          let ctx = "net filter" in
          let blk = expect_dev ctx 4 in
          let minor = int_tok_after ctx t 11 ~prefix:"1:" in
          let p =
            find_partial ctx blk minor (fun p -> p.p_minor = minor && p.p_vlink = None)
          in
          p.p_vlink <- Some (int_tok ctx t 8)
        end
      end);
  let bridges =
    List.rev_map
      (fun (name, ports) -> { bridge_name = name; ports = List.rev !ports })
      !order
  in
  (bridges, List.rev !links)

(* ---- JSON grammar ---- *)

let result_or_parse = function Ok v -> v | Error e -> raise (Parse e)

let j_member name json = result_or_parse (Json.member name json)
let j_int json = result_or_parse (Json.to_int json)
let j_float json = result_or_parse (Json.to_float json)
let j_str json = result_or_parse (Json.to_str json)
let j_list json = result_or_parse (Json.to_list json)

let parse_doc content = result_or_parse (Json.of_string content)

(* A JSON file's errors name the file; the parser's own carry the
   offset. *)
let in_file name f = try f () with Parse msg -> fail "%s: %s" name msg

let parse_vms_json content =
  in_file (Spec.vms_file Spec.Json) @@ fun () ->
  let json = parse_doc content in
  List.concat_map
    (fun host_entry ->
      let host = j_int (j_member "host" host_entry) in
      let bridge = j_str (j_member "bridge" host_entry) in
      List.map
        (fun vm ->
          {
            guest = j_int (j_member "guest" vm);
            name = j_str (j_member "name" vm);
            host;
            mem_mb = j_float (j_member "mem_mb" vm);
            stor_gb = j_float (j_member "stor_gb" vm);
            cpu_mips = j_float (j_member "cpu_mips" vm);
            iface = j_str (j_member "iface" vm);
            bridge;
          })
        (j_list (j_member "vms" host_entry)))
    (j_list (j_member "hosts" json))

let parse_net_json content =
  in_file (Spec.net_file Spec.Json) @@ fun () ->
  let json = parse_doc content in
  let bridges =
    List.map
      (fun b ->
        {
          bridge_name = j_str (j_member "name" b);
          ports = List.map j_str (j_list (j_member "ports" b));
        })
      (j_list (j_member "bridges" json))
  in
  let links =
    List.map
      (fun l ->
        {
          edge = j_int (j_member "edge" l);
          u = j_int (j_member "u" l);
          v = j_int (j_member "v" l);
          capacity_mbps = j_float (j_member "capacity_mbps" l);
          link_delay_ms = j_float (j_member "delay_ms" l);
          classes =
            List.map
              (fun c ->
                {
                  minor = j_int (j_member "minor" c);
                  vlink = j_int (j_member "vlink" c);
                  rate_mbps = j_float (j_member "rate_mbps" c);
                  delay_ms = j_float (j_member "delay_ms" c);
                })
              (j_list (j_member "classes" l));
        })
      (j_list (j_member "links" json))
  in
  (bridges, links)

(* ---- manifest + assembly ---- *)

let run ~files =
  try
    let file name =
      match List.assoc_opt name files with
      | Some content -> content
      | None -> fail "bundle is missing %s" name
    in
    let in_manifest f = in_file Spec.manifest_file f in
    let manifest_text = file Spec.manifest_file in
    let manifest, artifact_format, scope =
      in_manifest @@ fun () ->
      let manifest = parse_doc manifest_text in
      (match j_str (j_member "format" manifest) with
      | "hmn-artifact-manifest" -> ()
      | other -> fail "unexpected format %S" other);
      let artifact_format =
        result_or_parse
          (Spec.format_of_name (j_str (j_member "artifact_format" manifest)))
      in
      let scope =
        match j_str (j_member "scope" manifest) with
        | "full" -> Full
        | "tenant" -> Tenant (j_int (j_member "tenant_id" manifest))
        | other -> fail "unknown scope %S" other
      in
      (manifest, artifact_format, scope)
    in
    let vms_text = file (Spec.vms_file artifact_format) in
    let net_text = file (Spec.net_file artifact_format) in
    let vms, (bridges, links) =
      match artifact_format with
      | Spec.Shell -> (parse_vms_shell vms_text, parse_net_shell net_text)
      | Spec.Json -> (parse_vms_json vms_text, parse_net_json net_text)
    in
    in_manifest @@ fun () ->
    let opt name =
      match Json.member name manifest with Ok j -> Some j | Error _ -> None
    in
    let counts =
      match opt "counts" with
      | Some (Json.Obj fields) ->
        List.map (fun (k, v) -> (k, j_int v)) fields
      | _ -> fail "missing counts"
    in
    Ok
      {
        artifact_format;
        schema_version = j_int (j_member "schema_version" manifest);
        scope;
        vmm_label = j_str (j_member "label" (j_member "vmm" manifest));
        vms;
        bridges;
        links;
        problem = opt "problem";
        venv = opt "venv";
        counts;
        tolerance_mbps = j_float (j_member "tolerance_mbps" manifest);
      }
  with Parse msg -> Error ("decompile: " ^ msg)

let read_dir ~dir =
  try
    let read name =
      let path = Filename.concat dir name in
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let manifest = read Spec.manifest_file in
    let fmt =
      match Json.of_string manifest with
      | Ok json ->
        result_or_parse
          (Spec.format_of_name (j_str (j_member "artifact_format" json)))
      | Error e -> fail "%s: %s" Spec.manifest_file e
    in
    Ok
      [
        (Spec.manifest_file, manifest);
        (Spec.vms_file fmt, read (Spec.vms_file fmt));
        (Spec.net_file fmt, read (Spec.net_file fmt));
      ]
  with
  | Parse msg -> Error ("decompile: " ^ msg)
  | Sys_error msg -> Error ("decompile: " ^ msg)
