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

type classes = {
  minor : int array;
  vlink : int array;
  rate_mbps : float array;
  ceil_mbps : float array;
  delay_ms : float array;
}

type shaped_link = {
  edge : int;
  u : int;
  v : int;
  capacity_mbps : float;
  link_delay_ms : float;
  first_class : int;
  n_classes : int;
}

type bridge = { bridge_name : string; ports : string list }

type scope = Full | Tenant of int

type embedded = { manifest : string; start : int; len : int }

type t = {
  artifact_format : Spec.format;
  schema_version : int;
  scope : scope;
  vmm_label : string;
  vms : vm list;
  bridges : bridge list;
  links : shaped_link list;
  classes : classes;
  problem : embedded option;
  venv : embedded option;
  counts : (string * int) list;
  tolerance_mbps : float;
}

exception Parse of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse msg)) fmt

(* ---- in-place scanning ----

   The shell grammar is read without splitting the text: a line is a
   [start, stop) range of the file, a token a range of the line, and
   only the tokens a record keeps are copied out. *)

(* The ' '-separated tokens of one line, as ranges of [text]. *)
type toks = {
  text : string;
  mutable n : int;
  mutable starts : int array;
  mutable stops : int array;
}

let make_toks text = { text; n = 0; starts = Array.make 16 0; stops = Array.make 16 0 }

let push_token t start stop =
  if t.n = Array.length t.starts then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    t.starts <- grow t.starts;
    t.stops <- grow t.stops
  end;
  Array.unsafe_set t.starts t.n start;
  Array.unsafe_set t.stops t.n stop;
  t.n <- t.n + 1

(* [iter_lines ~file t f ~at_end] splits [t.text] into '\n'-separated
   lines, and each line into its tokens in the same pass over the bytes,
   and calls [f line start stop] on every non-empty line with [t]
   holding its tokens, then [at_end line]. [line] counts every line from
   1; a [Parse] raised by [f] or [at_end] is re-raised naming the file
   and [!line], which they may point at an earlier line. *)
let iter_lines ~file t f ~at_end =
  let text = t.text in
  let n = String.length text in
  let line = ref 0 in
  try
    let i = ref 0 in
    while !i < n do
      incr line;
      let start = !i in
      t.n <- 0;
      (* the byte at [!i], a newline past the end *)
      let c = ref (String.unsafe_get text start) in
      while !c <> '\n' do
        if !c = ' ' then begin
          incr i;
          c := if !i < n then String.unsafe_get text !i else '\n'
        end
        else begin
          let j = !i in
          while !c <> ' ' && !c <> '\n' do
            incr i;
            c := if !i < n then String.unsafe_get text !i else '\n'
          done;
          push_token t j !i
        end
      done;
      if !i > start then f line start !i;
      incr i
    done;
    at_end line
  with Parse msg -> fail "%s line %d: %s" file !line msg

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

(* A keyword of the shell grammar. One of at most 7 bytes is also
   packed into an int, little-endian, so that a token is tested against
   it with one 8-byte load and a mask instead of a loop over its bytes. *)
type keyword = { lit : string; packed : int; mask : int }

let keyword lit =
  let len = String.length lit in
  if len > 7 then { lit; packed = 0; mask = 0 }
  else begin
    let packed = ref 0 in
    for i = len - 1 downto 0 do
      packed := (!packed lsl 8) lor Char.code lit.[i]
    done;
    { lit; packed = !packed; mask = (1 lsl (8 * len)) - 1 }
  end

(* is [text.[start .. stop-1]] exactly [kw]? *)
let range_is text start stop kw =
  stop - start = String.length kw.lit
  &&
  if kw.mask <> 0 && start + 8 <= String.length text then
    Int64.to_int (String.get_int64_le text start) land kw.mask = kw.packed
  else same_from text start kw.lit 0

(* is token [k] exactly [kw]? *)
let tok_is t k kw = range_is t.text t.starts.(k) t.stops.(k) kw

(* The value of [text.[i .. stop-1]] as decimal digits accumulated onto
   [acc], or -1 at the first other byte. *)
let rec digits_value text acc i stop =
  if i = stop then acc
  else
    match String.unsafe_get text i with
    | '0' .. '9' as c -> digits_value text ((10 * acc) + Char.code c - 48) (i + 1) stop
    | _ -> -1

(* An optional '-' and at most 18 digits is read in place, which is
   exactly [int_of_string]'s value; any other token goes through
   [int_of_string_opt], so the accepted grammar is the same. *)
let int_in ctx text start stop =
  let neg = start < stop && String.unsafe_get text start = '-' in
  let d = if neg then start + 1 else start in
  let n = if stop > d && stop - d <= 18 then digits_value text 0 d stop else -1 in
  if n >= 0 then if neg then -n else n
  else
    let s = String.sub text start (stop - start) in
    match int_of_string_opt s with
    | Some n -> n
    | None -> fail "%s: expected an integer, got %S" ctx s

(* At most 15 plain digits is an exact double, read in place; any other
   token goes through [float_of_string_opt]. *)
let float_in ctx text start stop =
  let n = if stop > start && stop - start <= 15 then digits_value text 0 start stop else -1 in
  if n >= 0 then float_of_int n
  else
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

(* Does [text.[a .. a+len-1]] equal [text.[b .. b+len-1]]? *)
let rec same_bytes text a b len =
  len = 0
  || String.unsafe_get text a = String.unsafe_get text b
     && same_bytes text (a + 1) (b + 1) (len - 1)

let float_tok_before ctx t k ~suffix =
  let start = t.starts.(k) and stop = t.stops.(k) in
  let ns = String.length suffix in
  if stop - start > ns && has_prefix t.text (stop - ns) stop suffix then
    float_in ctx t.text start (stop - ns)
  else fail "%s: expected %s-suffixed token, got %S" ctx suffix (tok t k)

(* ---- shell grammar ---- *)

let launch_flags =
  Array.map keyword
    [| "guest"; "name"; "host"; "mem-mb"; "stor-gb"; "cpu-mips"; "iface"; "bridge" |]

let parse_vms_shell content =
  let t = make_toks content in
  let ctx = "vms" in
  (* token index of each launch flag's value, first occurrence wins *)
  let value = Array.make (Array.length launch_flags) (-1) in
  (* the token of flag [i]'s value, and whether it is single-quoted *)
  let value_tok i =
    let k = value.(i) in
    if k < 0 then fail "%s: missing --%s" ctx launch_flags.(i).lit;
    k
  in
  let quoted k =
    let a = t.starts.(k) and b = t.stops.(k) in
    b - a >= 2 && content.[a] = '\'' && content.[b - 1] = '\''
  in
  (* a value's range, its single quotes stripped *)
  let start i = let k = value_tok i in if quoted k then t.starts.(k) + 1 else t.starts.(k) in
  let stop i = let k = value_tok i in if quoted k then t.stops.(k) - 1 else t.stops.(k) in
  let str i = let a = start i in String.sub content a (stop i - a) in
  let int i = int_in ctx content (start i) (stop i) in
  let float i = float_in ctx content (start i) (stop i) in
  let vms = ref [] in
  iter_lines ~file:(Spec.vms_file Spec.Shell) t ~at_end:ignore (fun _ line_start line_stop ->
      if has_prefix content line_start line_stop "hmn_vm launch " then begin
        Array.fill value 0 (Array.length value) (-1);
        (* "--flag value --flag value ..." after "hmn_vm launch" *)
        let k = ref 2 in
        while !k < t.n do
          let fs = t.starts.(!k) and fe = t.stops.(!k) in
          if !k + 1 < t.n && has_prefix content fs fe "--" then begin
            let i = ref 0 in
            while
              !i < Array.length launch_flags
              && not (range_is content (fs + 2) fe launch_flags.(!i))
            do
              incr i
            done;
            if !i < Array.length launch_flags && value.(!i) < 0 then value.(!i) <- !k + 1;
            k := !k + 2
          end
          else fail "%s: malformed flag list at %S" ctx (tok t !k)
        done;
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

(* Every class of the bundle, in emission order, one growable column
   per field; [has] marks the lines read so far of a shell class. *)
type columns = {
  mutable len : int;
  mutable c_minor : int array;
  mutable c_vlink : int array;
  mutable c_rate : float array;
  mutable c_ceil : float array;
  mutable c_delay : float array;
  mutable has : int array;
}

let has_netem = 1
let has_filter = 2

let make_columns capacity =
  {
    len = 0;
    c_minor = Array.make capacity 0;
    c_vlink = Array.make capacity 0;
    c_rate = Array.make capacity 0.;
    c_ceil = Array.make capacity 0.;
    c_delay = Array.make capacity 0.;
    has = Array.make capacity 0;
  }

let add_class c ~minor ~vlink ~rate ~ceil ~delay ~has =
  if c.len = Array.length c.c_minor then begin
    let grow a x =
      let b = Array.make (2 * Array.length a) x in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    c.c_minor <- grow c.c_minor 0;
    c.c_vlink <- grow c.c_vlink 0;
    c.c_rate <- grow c.c_rate 0.;
    c.c_ceil <- grow c.c_ceil 0.;
    c.c_delay <- grow c.c_delay 0.;
    c.has <- grow c.has 0
  end;
  let j = c.len in
  c.c_minor.(j) <- minor;
  c.c_vlink.(j) <- vlink;
  c.c_rate.(j) <- rate;
  c.c_ceil.(j) <- ceil;
  c.c_delay.(j) <- delay;
  c.has.(j) <- has;
  c.len <- j + 1

let classes_of c =
  {
    minor = Array.sub c.c_minor 0 c.len;
    vlink = Array.sub c.c_vlink 0 c.len;
    rate_mbps = Array.sub c.c_rate 0 c.len;
    ceil_mbps = Array.sub c.c_ceil 0 c.len;
    delay_ms = Array.sub c.c_delay 0 c.len;
  }

(* The link block being read: its header, its device name, the header's
   line and the range of its delay-ms text; its classes are the columns'
   entries from [link.first_class] on. *)
type block = {
  link : shaped_link;
  dev : keyword;
  header_line : int;
  delay_start : int;
  delay_stop : int;
}

(* The keywords of net.sh. *)
let k_tc = keyword "tc"
and k_add = keyword "add"
and k_dev = keyword "dev"
and k_class = keyword "class"
and k_qdisc = keyword "qdisc"
and k_filter = keyword "filter"
and k_parent = keyword "parent"
and k_root = keyword "root"
and k_1 = keyword "1:"
and k_classid = keyword "classid"
and k_htb = keyword "htb"
and k_rate = keyword "rate"
and k_ceil = keyword "ceil"
and k_handle = keyword "handle"
and k_netem = keyword "netem"
and k_delay = keyword "delay"
and k_fw = keyword "fw"
and k_flowid = keyword "flowid"
and k_hash = keyword "#"
and k_link = keyword "link"
and k_ovs_vsctl = keyword "ovs-vsctl"
and k_add_br = keyword "add-br"
and k_add_port = keyword "add-port"

(* A line is dispatched once, on its first byte and then on the byte
   that tells its tc object apart, and only then are the keywords of
   the one form it can be compared. *)
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
  (* a class takes about 200 bytes of net.sh (its three lines) *)
  let cols = make_columns (64 + (String.length content / 200)) in
  let links = ref [] in
  let current = ref None in
  (* close the current block; an incomplete class is reported at the
     block's header line, newest class first, its netem line before
     its filter line *)
  let finalize line =
    match !current with
    | None -> ()
    | Some blk ->
      let first = blk.link.first_class in
      for j = cols.len - 1 downto first do
        let has = cols.has.(j) in
        if has land has_netem = 0 || has land has_filter = 0 then begin
          line := blk.header_line;
          fail "net: link e%d class 1:%d missing its %s line" blk.link.edge
            cols.c_minor.(j)
            (if has land has_netem = 0 then "netem" else "filter")
        end
      done;
      links := { blk.link with n_classes = cols.len - first } :: !links;
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
  (* the newest class of [blk] with [minor] that still lacks [line] *)
  let find_class ctx blk minor line =
    let j = ref (cols.len - 1) in
    while
      !j >= blk.link.first_class
      && not (cols.c_minor.(!j) = minor && cols.has.(!j) land line = 0)
    do
      decr j
    done;
    if !j < blk.link.first_class then
      fail "net: %s for class 1:%d has no matching class" ctx minor;
    !j
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
    let edge = int_tok_after ctx t 2 ~prefix:"e" in
    let u = int_kv "u" in
    let v = int_kv "v" in
    let capacity_mbps = let a, b = kv "cap-mbit" in float_in ctx content a b in
    let delay_start, delay_stop = kv "delay-ms" in
    let link_delay_ms = float_in ctx content delay_start delay_stop in
    current :=
      Some
        {
          link =
            {
              edge;
              u;
              v;
              capacity_mbps;
              link_delay_ms;
              first_class = cols.len;
              n_classes = 0;
            };
          dev = keyword (Spec.port edge);
          header_line = !line;
          delay_start;
          delay_stop;
        }
  in
  (* "htb rate <r>mbit [ceil <c>mbit]": tc's ceil defaults to the rate;
     a ceil spelled like the rate is the rate's value *)
  let tc_class () =
    let ctx = "net class" in
    ignore (expect_dev ctx 4 : block);
    let minor = int_tok_after ctx t 8 ~prefix:"1:" in
    let rate = float_tok_before ctx t 11 ~suffix:"mbit" in
    let ceil =
      if t.n > 12 && is 12 k_ceil then begin
        if t.n = 13 then fail "net class ceil: missing its value";
        let r = t.starts.(11) and c = t.starts.(13) in
        let len = t.stops.(11) - r in
        if t.stops.(13) - c = len && same_bytes content r c len then rate
        else float_tok_before "net class ceil" t 13 ~suffix:"mbit"
      end
      else rate
    in
    add_class cols ~minor ~vlink:0 ~rate ~ceil ~delay:0. ~has:0
  in
  let tc_netem () =
    let ctx = "net netem" in
    let blk = expect_dev ctx 4 in
    let minor = int_tok_after ctx t 6 ~prefix:"1:" in
    let j = find_class ctx blk minor has_netem in
    (* a delay spelled like the header's is the header's value *)
    let a = t.starts.(11) and b = t.stops.(11) - 2 in
    let len = blk.delay_stop - blk.delay_start in
    cols.c_delay.(j) <-
      (if
         b - a = len && len > 0 && has_prefix content b t.stops.(11) "ms"
         && same_bytes content a blk.delay_start len
       then blk.link.link_delay_ms
       else float_tok_before ctx t 11 ~suffix:"ms");
    cols.has.(j) <- cols.has.(j) lor has_netem
  in
  let tc_filter () =
    let ctx = "net filter" in
    let blk = expect_dev ctx 4 in
    let minor = int_tok_after ctx t 11 ~prefix:"1:" in
    let j = find_class ctx blk minor has_filter in
    cols.c_vlink.(j) <- int_tok ctx t 8;
    cols.has.(j) <- cols.has.(j) lor has_filter
  in
  iter_lines ~file:(Spec.net_file Spec.Shell) t ~at_end:finalize
    (fun line _ _ ->
      let n = t.n in
      if n > 0 then
        match String.unsafe_get content t.starts.(0) with
        | 't' ->
          if n >= 6 && is 0 k_tc && is 2 k_add && is 3 k_dev then begin
            match String.unsafe_get content t.starts.(1) with
            | 'c' ->
              if
                n >= 12 && is 1 k_class && is 5 k_parent && is 6 k_1
                && is 7 k_classid && is 9 k_htb && is 10 k_rate
              then tc_class ()
            | 'q' ->
              if is 1 k_qdisc then
                if is 5 k_root then ignore (expect_dev "root qdisc" 4)
                else if
                  n >= 12 && is 5 k_parent && is 7 k_handle && is 9 k_netem
                  && is 10 k_delay
                then tc_netem ()
            | 'f' ->
              if
                n >= 12 && is 1 k_filter && is 5 k_parent && is 6 k_1
                && is 7 k_handle && is 9 k_fw && is 10 k_flowid
              then tc_filter ()
            | _ -> ()
          end
        | '#' -> if n >= 2 && is 0 k_hash && is 1 k_link then header line
        | 'o' ->
          if n >= 3 && is 0 k_ovs_vsctl then
            if n = 3 && is 1 k_add_br then ignore (add_bridge (tok t 2))
            else if n = 4 && is 1 k_add_port then begin
              let br = tok t 2 in
              (* tenant deltas add ports to pre-existing bridges *)
              let ports =
                match Hashtbl.find_opt by_name br with
                | Some ports -> ports
                | None -> add_bridge br
              in
              ports := tok t 3 :: !ports
            end
        | _ -> ());
  let bridges =
    List.rev_map
      (fun (name, ports) -> { bridge_name = name; ports = List.rev !ports })
      !order
  in
  (bridges, List.rev !links, classes_of cols)

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
  let cols = make_columns 64 in
  let links =
    List.map
      (fun l ->
        (* members are read last first, so that of several defects in
           one entry the same one is reported as when these were
           record fields *)
        let first_class = cols.len in
        List.iter
          (fun c ->
            let delay = j_float (j_member "delay_ms" c) in
            let rate = j_float (j_member "rate_mbps" c) in
            let vlink = j_int (j_member "vlink" c) in
            let minor = j_int (j_member "minor" c) in
            (* the JSON grammar has no ceil: it reads as the rate *)
            add_class cols ~minor ~vlink ~rate ~ceil:rate ~delay
              ~has:(has_netem lor has_filter))
          (j_list (j_member "classes" l));
        let link_delay_ms = j_float (j_member "delay_ms" l) in
        let capacity_mbps = j_float (j_member "capacity_mbps" l) in
        let v = j_int (j_member "v" l) in
        let u = j_int (j_member "u" l) in
        let edge = j_int (j_member "edge" l) in
        {
          edge;
          u;
          v;
          capacity_mbps;
          link_delay_ms;
          first_class;
          n_classes = cols.len - first_class;
        })
      (j_list (j_member "links" json))
  in
  (bridges, links, classes_of cols)

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
    (* the embedded instance is checked by the parser but kept as text:
       [embedded] holds its byte ranges, and [manifest] the rest *)
    let manifest, embedded =
      in_manifest @@ fun () ->
      result_or_parse (Json.of_string_raw ~raw:[ "problem"; "venv" ] manifest_text)
    in
    let artifact_format, scope =
      in_manifest @@ fun () ->
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
      (artifact_format, scope)
    in
    let vms_text = file (Spec.vms_file artifact_format) in
    let net_text = file (Spec.net_file artifact_format) in
    let vms, (bridges, links, classes) =
      match artifact_format with
      | Spec.Shell -> (parse_vms_shell vms_text, parse_net_shell net_text)
      | Spec.Json -> (parse_vms_json vms_text, parse_net_json net_text)
    in
    in_manifest @@ fun () ->
    let text name =
      (* the first, as [Json.member] finds *)
      List.find_map
        (fun (k, start, stop) ->
          if k = name then Some { manifest = manifest_text; start; len = stop - start }
          else None)
        embedded
    in
    let counts =
      match Json.member "counts" manifest with
      | Ok (Json.Obj fields) ->
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
        classes;
        problem = text "problem";
        venv = text "venv";
        counts;
        tolerance_mbps = j_float (j_member "tolerance_mbps" manifest);
      }
  with Parse msg -> Error ("decompile: " ^ msg)
