(* Tests for the artifact compiler: round-trip fidelity (compile →
   decompile → cross-validate) across grammars, topologies and every
   registered mapper; directed corruptions each caught with its own
   violation class; byte determinism; on-disk write/read; online
   per-tenant deltas. *)

module Compile = Hmn_artifact.Compile
module Decompile = Hmn_artifact.Decompile
module Spec = Hmn_artifact.Spec
module Check = Hmn_validate.Artifact_check
module Fuzz = Hmn_validate.Fuzz
module Mapper = Hmn_core.Mapper
module Mapping = Hmn_mapping.Mapping
module Placement = Hmn_mapping.Placement
module Link_map = Hmn_mapping.Link_map
module Problem = Hmn_mapping.Problem
module Venv = Hmn_vnet.Virtual_env
module Path = Hmn_routing.Path
module Json = Hmn_prelude.Json

let run_mapper problem =
  match (Hmn_core.Hmn.run problem).Mapper.result with
  | Ok m -> m
  | Error f -> Alcotest.fail f.Mapper.reason

let sample_mapping ?(seed = 7) ?(guests = 24) () =
  run_mapper
    (Fuzz.build_problem
       { Fuzz.shape = Fuzz.Torus { rows = 3; cols = 3 };
         n_guests = guests; density = 0.15; low_level = false }
       ~seed)

let roundtrip ~format mapping =
  let b = Compile.of_mapping ~format mapping in
  match Decompile.run ~files:b.Compile.files with
  | Error e -> Alcotest.fail e
  | Ok d -> Check.check ~mapping d

let check_clean what report =
  if not (Check.ok report) then
    Alcotest.failf "%s: %s" what (Format.asprintf "%a" Check.pp_report report)

let labels report =
  List.map Check.violation_label report.Check.violations
  |> List.sort_uniq String.compare

(* ---- clean round trips ---- *)

let test_roundtrip_shell () =
  check_clean "shell" (roundtrip ~format:Spec.Shell (sample_mapping ()))

let test_roundtrip_json () =
  check_clean "json" (roundtrip ~format:Spec.Json (sample_mapping ()))

let test_roundtrip_fat_tree () =
  (* the third topology family, not covered by Fuzz.draw_params *)
  let rng = Hmn_rng.Rng.create 31 in
  let cluster = Hmn_testbed.Cluster_gen.fat_tree_cluster ~k:4 ~rng () in
  let venv =
    Hmn_vnet.Venv_gen.generate ~scale_to_fit:(cluster, 0.3)
      ~profile:Hmn_vnet.Workload.high_level ~n:40 ~density:0.1 ~rng ()
  in
  let mapping = run_mapper (Problem.make ~cluster ~venv) in
  check_clean "fat-tree shell" (roundtrip ~format:Spec.Shell mapping);
  check_clean "fat-tree json" (roundtrip ~format:Spec.Json mapping)

let test_deterministic () =
  let m = sample_mapping () in
  List.iter
    (fun format ->
      let a = Compile.of_mapping ~format m and b = Compile.of_mapping ~format m in
      Alcotest.(check bool)
        (Spec.format_name format ^ " byte-identical")
        true (a.Compile.files = b.Compile.files))
    [ Spec.Shell; Spec.Json ]

let prop_roundtrip_every_mapper =
  QCheck.Test.make
    ~name:"export → decompile → check is clean for every registered mapper"
    ~count:8 QCheck.small_nat
    (fun s ->
      let seed = 1000 + s in
      let params = Fuzz.draw_params (Hmn_rng.Rng.create seed) in
      let problem = Fuzz.build_problem params ~seed in
      List.for_all
        (fun mapper ->
          match
            (mapper.Mapper.run ~rng:(Hmn_rng.Rng.create (seed + 1)) problem)
              .Mapper.result
          with
          | Error _ -> true (* giving up is allowed; exporting is not tested *)
          | Ok mapping ->
            List.for_all
              (fun format ->
                let b = Compile.of_mapping ~format mapping in
                match Decompile.run ~files:b.Compile.files with
                | Error _ -> false
                | Ok d -> Check.ok (Check.check ~mapping d))
              [ Spec.Shell; Spec.Json ])
        (Hmn_core.Registry.all ()))

(* ---- directed corruptions ---- *)

let with_file name f files =
  List.map (fun (n, c) -> if n = name then (n, f c) else (n, c)) files

let corrupted_report mapping files =
  match Decompile.run ~files with
  | Error e -> Alcotest.failf "corrupted bundle should still decompile: %s" e
  | Ok d -> Check.check ~mapping d

(* replace the digits of the first "htb rate <num>mbit" in net.sh *)
let tamper_rate content =
  let needle = "htb rate " in
  let i =
    match
      String.index_opt content 'h'
      |> fun _ ->
      let rec find from =
        match String.index_from_opt content from 'h' with
        | None -> None
        | Some j ->
          if
            j + String.length needle <= String.length content
            && String.sub content j (String.length needle) = needle
          then Some j
          else find (j + 1)
      in
      find 0
    with
    | Some j -> j + String.length needle
    | None -> Alcotest.fail "no htb rate line to tamper"
  in
  let rec num_end j =
    if j < String.length content && content.[j] <> 'm' then num_end (j + 1)
    else j
  in
  let j = num_end i in
  String.sub content 0 i ^ "12345"
  ^ String.sub content j (String.length content - j)

let test_tampered_rate () =
  let mapping = sample_mapping () in
  let b = Compile.of_mapping ~format:Spec.Shell mapping in
  let files = with_file "net.sh" tamper_rate b.Compile.files in
  let report = corrupted_report mapping files in
  let ls = labels report in
  Alcotest.(check bool) "flags rate-mismatch" true (List.mem "rate-mismatch" ls);
  Alcotest.(check bool)
    "and the tampered sum" true
    (List.mem "rate-sum-mismatch" ls);
  Alcotest.(check bool)
    "no guest or class noise" true
    (not (List.mem "guest-missing" ls || List.mem "class-duplicated" ls))

(* replace the digits of the first "ceil <num>mbit" in net.sh: a class
   that may borrow past its reservation *)
let tamper_ceil content =
  let needle = "ceil " in
  let rec find from =
    match String.index_from_opt content from 'c' with
    | None -> Alcotest.fail "no ceil to tamper"
    | Some j ->
      if
        j + String.length needle <= String.length content
        && String.sub content j (String.length needle) = needle
      then j + String.length needle
      else find (j + 1)
  in
  let i = find 0 in
  let j = String.index_from content i 'm' in
  String.sub content 0 i ^ "99999" ^ String.sub content j (String.length content - j)

let test_tampered_ceil () =
  let mapping = sample_mapping () in
  let b = Compile.of_mapping ~format:Spec.Shell mapping in
  let files = with_file "net.sh" tamper_ceil b.Compile.files in
  let report = corrupted_report mapping files in
  Alcotest.(check (list string)) "flags only ceil-mismatch" [ "ceil-mismatch" ]
    (labels report);
  Alcotest.(check int) "once" 1 (List.length report.Check.violations)

let test_dropped_vm_line () =
  let mapping = sample_mapping () in
  let b = Compile.of_mapping ~format:Spec.Shell mapping in
  let drop content =
    let lines = String.split_on_char '\n' content in
    let dropped = ref false in
    let kept =
      List.filter
        (fun l ->
          if (not !dropped) && String.length l >= 6 && String.sub l 0 6 = "hmn_vm"
          then (
            dropped := true;
            false)
          else true)
        lines
    in
    if not !dropped then Alcotest.fail "no launch line to drop";
    String.concat "\n" kept
  in
  let files = with_file "vms.sh" drop b.Compile.files in
  let report = corrupted_report mapping files in
  let ls = labels report in
  Alcotest.(check bool) "flags guest-missing" true (List.mem "guest-missing" ls);
  Alcotest.(check bool)
    "no rate or class noise" true
    (not (List.mem "rate-mismatch" ls || List.mem "class-duplicated" ls))

let test_duplicated_class () =
  let mapping = sample_mapping () in
  let b = Compile.of_mapping ~format:Spec.Shell mapping in
  let duplicate content =
    (* duplicate the first full class block: class + netem + filter *)
    let lines = String.split_on_char '\n' content in
    let rec go = function
      | (c :: n :: f :: _) as rest
        when String.length c >= 8 && String.sub c 0 8 = "tc class" ->
        ignore n;
        ignore f;
        let block = [ List.nth rest 0; List.nth rest 1; List.nth rest 2 ] in
        block @ rest
      | l :: rest -> l :: go rest
      | [] -> Alcotest.fail "no class block to duplicate"
    in
    String.concat "\n" (go lines)
  in
  let files = with_file "net.sh" duplicate b.Compile.files in
  let report = corrupted_report mapping files in
  let ls = labels report in
  Alcotest.(check bool)
    "flags class-duplicated" true
    (List.mem "class-duplicated" ls);
  Alcotest.(check bool)
    "no guest noise" true
    (not (List.mem "guest-missing" ls))

let test_tampered_schema () =
  let mapping = sample_mapping () in
  let b = Compile.of_mapping ~format:Spec.Shell mapping in
  let files =
    with_file Spec.manifest_file
      (fun c ->
        (* bump the manifest's recorded schema version *)
        let needle = Printf.sprintf "\"schema_version\": %d" Spec.schema_version in
        let repl = "\"schema_version\": 99" in
        match String.index_opt c '"' with
        | None -> Alcotest.fail "empty manifest"
        | Some _ ->
          let rec find from =
            if from + String.length needle > String.length c then
              Alcotest.fail "schema_version not found"
            else if String.sub c from (String.length needle) = needle then from
            else find (from + 1)
          in
          let i = find 0 in
          String.sub c 0 i ^ repl
          ^ String.sub c
              (i + String.length needle)
              (String.length c - i - String.length needle))
      b.Compile.files
  in
  let report = corrupted_report mapping files in
  Alcotest.(check bool)
    "flags schema-mismatch" true
    (List.mem "schema-mismatch" (labels report))

(* ---- disk round trip ---- *)

let test_write_read_dir () =
  let mapping = sample_mapping ~seed:13 () in
  let b = Compile.of_mapping ~format:Spec.Json mapping in
  let dir = Filename.temp_dir "hmn-artifact" "" in
  let remove_dir () =
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:remove_dir (fun () ->
      Compile.write ~dir b;
      let read name =
        In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all
      in
      let files =
        List.map
          (fun name -> (name, read name))
          [ Spec.manifest_file; Spec.vms_file Spec.Json; Spec.net_file Spec.Json ]
      in
      Alcotest.(check bool) "same bytes back" true (files = b.Compile.files);
      match Decompile.run ~files with
      | Error e -> Alcotest.fail e
      | Ok d -> check_clean "disk round trip" (Check.check ~mapping d))

(* ---- per-tenant deltas ---- *)

let tenant_pieces mapping =
  let problem = Mapping.problem mapping in
  let venv = problem.Problem.venv in
  let hosts =
    Array.init (Venv.n_guests venv) (fun g ->
        Placement.host_of_exn mapping.Mapping.placement ~guest:g)
  in
  let paths =
    Array.init (Venv.n_vlinks venv) (fun vl ->
        match Link_map.path_of mapping.Mapping.link_map ~vlink:vl with
        | Some p -> p
        | None -> Alcotest.failf "vlink %d unrouted" vl)
  in
  (problem.Problem.cluster, venv, hosts, paths)

let test_tenant_roundtrip () =
  let mapping = sample_mapping ~seed:17 ~guests:12 () in
  let cluster, venv, hosts, paths = tenant_pieces mapping in
  List.iter
    (fun format ->
      let b =
        Compile.of_tenant ~format ~cluster ~venv ~id:5 ~hosts ~paths ()
      in
      match Decompile.run ~files:b.Compile.files with
      | Error e -> Alcotest.fail e
      | Ok d ->
        (match d.Decompile.scope with
        | Decompile.Tenant 5 -> ()
        | _ -> Alcotest.fail "scope should be tenant 5");
        check_clean
          ("tenant " ^ Spec.format_name format)
          (Check.check_tenant ~cluster ~venv ~hosts ~paths d))
    [ Spec.Shell; Spec.Json ]

let test_tenant_misplacement_flagged () =
  let mapping = sample_mapping ~seed:17 ~guests:12 () in
  let cluster, venv, hosts, paths = tenant_pieces mapping in
  let b = Compile.of_tenant ~format:Spec.Shell ~cluster ~venv ~id:1 ~hosts ~paths () in
  (* claim a different placement than the artifacts were compiled from *)
  let lying = Array.copy hosts in
  lying.(0) <- hosts.(Array.length hosts - 1);
  match Decompile.run ~files:b.Compile.files with
  | Error e -> Alcotest.fail e
  | Ok d ->
    let report = Check.check_tenant ~cluster ~venv ~hosts:lying ~paths d in
    if hosts.(0) <> lying.(0) then
      Alcotest.(check bool)
        "misplacement flagged" true
        (List.mem "guest-misplaced" (labels report))

(* ---- the embedded instance ---- *)

let manifest_of files = List.assoc Spec.manifest_file files

(* The manifest re-printed compactly: the same JSON, other bytes. *)
let compact_manifest files =
  with_file Spec.manifest_file
    (fun c ->
      match Json.of_string c with
      | Ok j -> Json.to_string j
      | Error e -> Alcotest.fail e)
    files

let test_compact_manifest_checks_clean () =
  let mapping = sample_mapping () in
  let cluster, venv, hosts, paths = tenant_pieces mapping in
  List.iter
    (fun format ->
      let full = (Compile.of_mapping ~format mapping).Compile.files in
      let tenant =
        (Compile.of_tenant ~format ~cluster ~venv ~id:2 ~hosts ~paths ()).Compile.files
      in
      List.iter
        (fun (what, files, check) ->
          let files' = compact_manifest files in
          Alcotest.(check bool) (what ^ ": other bytes") false
            (String.equal (manifest_of files) (manifest_of files'));
          match Decompile.run ~files:files' with
          | Error e -> Alcotest.fail e
          | Ok d -> check_clean (what ^ " " ^ Spec.format_name format) (check d))
        [
          ("compact full", full, fun d -> Check.check ~mapping d);
          ("compact tenant", tenant, Check.check_tenant ~cluster ~venv ~hosts ~paths);
        ])
    [ Spec.Shell; Spec.Json ]

let index_from s from sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then Alcotest.failf "%S not found" sub
    else if String.sub s i n = sub then i
    else go (i + 1)
  in
  go from

(* The first digit of the first vlink's bandwidth in the embedded
   payload, moved to another non-zero digit: a different number. *)
let bump_vlink_bandwidth manifest =
  let key = "\"bandwidth_mbps\": " in
  let i = index_from manifest (index_from manifest 0 "\"vlinks\"") key + String.length key in
  let b = Bytes.of_string manifest in
  let d = Char.code manifest.[i] - 48 in
  if d < 0 || d > 9 then Alcotest.failf "no digit at %d" i;
  Bytes.set b i (Char.chr (49 + (d mod 9)));
  Bytes.to_string b

let test_payload_digit_changed () =
  let mapping = sample_mapping () in
  let cluster, venv, hosts, paths = tenant_pieces mapping in
  List.iter
    (fun (full, format) ->
      let files =
        if full then (Compile.of_mapping ~format mapping).Compile.files
        else (Compile.of_tenant ~format ~cluster ~venv ~id:4 ~hosts ~paths ()).Compile.files
      in
      let files = with_file Spec.manifest_file bump_vlink_bandwidth files in
      match (Decompile.run ~files, Reference_decompile.run ~files) with
      | Ok d, Ok d' ->
        let r =
          if full then Check.check ~mapping d
          else Check.check_tenant ~cluster ~venv ~hosts ~paths d
        in
        let r' =
          if full then Reference_artifact_check.check ~mapping d'
          else Reference_artifact_check.check_tenant ~cluster ~venv ~hosts ~paths d'
        in
        Alcotest.(check (list string)) "one manifest-mismatch" [ "manifest-mismatch" ]
          (List.map Check.violation_label r.Check.violations);
        Alcotest.(check (list string)) "the reference checker's report"
          (List.map
             (Format.asprintf "%a" Reference_artifact_check.pp_violation)
             r'.Reference_artifact_check.violations)
          (List.map (Format.asprintf "%a" Check.pp_violation) r.Check.violations)
      | Error e, _ | _, Error e -> Alcotest.fail e)
    [ (true, Spec.Shell); (true, Spec.Json); (false, Spec.Shell); (false, Spec.Json) ]

(* ---- byte identity with the old compiler ---- *)

(* A small mapped instance: a Clos of 10–40 hosts at 1–3 guests per
   host, or a paper-style torus. *)
let small_mapping (clos, size, ratio, seed) =
  let problem =
    if clos then
      Hmn_experiments.Scale.problem ~shape:Hmn_experiments.Scale.Clos
        ~hosts:(10 * (1 + (size mod 4))) ~ratio:(1 + (ratio mod 3)) ~seed
    else
      Fuzz.build_problem
        { Fuzz.shape = Fuzz.Torus { rows = 2 + (size mod 3); cols = 2 + (ratio mod 3) };
          n_guests = 8 + (seed mod 24); density = 0.2; low_level = seed mod 2 = 0 }
        ~seed
  in
  match (Hmn_core.Hmn.run problem).Mapper.result with
  | Ok m -> Some m
  | Error _ -> None

let prop_matches_reference_compiler =
  QCheck.Test.make ~name:"bundles are byte-identical to the old compiler's" ~count:30
    QCheck.(quad bool small_nat small_nat (int_range 1 10_000))
    (fun case ->
      match small_mapping case with
      | None -> QCheck.assume_fail ()
      | Some mapping ->
        let _, _, _, seed = case in
        let vmm = if seed mod 3 = 0 then Some Hmn_testbed.Vmm.none else None in
        let cluster, venv, hosts, paths = tenant_pieces mapping in
        List.for_all
          (fun format ->
            (Compile.of_mapping ?vmm ~format mapping).Compile.files
            = Reference_compile.of_mapping ?vmm ~format mapping
            && (Compile.of_tenant ?vmm ~format ~cluster ~venv ~id:seed ~hosts ~paths ())
                 .Compile.files
               = Reference_compile.of_tenant ?vmm ~format ~cluster ~venv ~id:seed ~hosts
                   ~paths ())
          [ Spec.Shell; Spec.Json ])

(* ---- hostile input ---- *)

type mutation = Truncate of int | Flip of int * int | Dup_line of int | Del_line of int

let apply_mutation text = function
  | Truncate i -> String.sub text 0 (i mod (String.length text + 1))
  | Flip (i, x) when text <> "" ->
    let b = Bytes.of_string text in
    let i = i mod Bytes.length b in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + (x mod 255))));
    Bytes.to_string b
  | Flip _ -> text
  | Dup_line k | Del_line k as m ->
    let lines = String.split_on_char '\n' text in
    let k = k mod List.length lines in
    String.concat "\n"
      (List.concat
         (List.mapi
            (fun i l ->
              if i <> k then [ l ] else match m with Dup_line _ -> [ l; l ] | _ -> [])
            lines))

let gen_mutation =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Truncate i) nat;
        map2 (fun i x -> Flip (i, x)) nat nat;
        map (fun k -> Dup_line k) nat;
        map (fun k -> Del_line k) nat;
      ])

let show_mutation = function
  | Truncate i -> Printf.sprintf "truncate %d" i
  | Flip (i, x) -> Printf.sprintf "flip %d %d" i x
  | Dup_line k -> Printf.sprintf "dup line %d" k
  | Del_line k -> Printf.sprintf "del line %d" k

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* "decompile: <file> line <n>: ..." *)
let names_a_line file msg =
  let prefix = "decompile: " ^ file ^ " line " in
  starts_with ~prefix msg
  &&
  let n = String.length prefix in
  let rest = String.sub msg n (String.length msg - n) in
  match String.index_opt rest ':' with
  | Some i -> i > 0 && int_of_string_opt (String.sub rest 0 i) <> None
  | None -> false

let prop_hostile_bundles =
  let mapping = sample_mapping ~seed:11 ~guests:16 () in
  let cluster, venv, hosts, paths = tenant_pieces mapping in
  let bundles =
    List.concat_map
      (fun format ->
        [
          (Compile.of_mapping ~format mapping).Compile.files;
          (Compile.of_tenant ~format ~cluster ~venv ~id:3 ~hosts ~paths ()).Compile.files;
        ])
      [ Spec.Shell; Spec.Json ]
  in
  QCheck.Test.make
    ~name:"mutated bundles decompile to Ok or a located Error, never an exception"
    ~count:1500
    (QCheck.make
       ~print:(fun (b, f, ms) ->
         Printf.sprintf "bundle %d file %d: %s" b f
           (String.concat ", " (List.map show_mutation ms)))
       QCheck.Gen.(
         triple (int_bound 3) (int_bound 2) (list_size (int_range 1 3) gen_mutation)))
    (fun (b, f, ms) ->
      let files = List.nth bundles b in
      let name = fst (List.nth files f) in
      let files =
        List.map
          (fun (n, c) ->
            if n = name then (n, List.fold_left apply_mutation c ms) else (n, c))
          files
      in
      match Decompile.run ~files with
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | Ok d -> (
        (* what decompiles is judged by the checker, which must not raise
           either *)
        match
          if b mod 2 = 0 then Check.check ~mapping d
          else Check.check_tenant ~cluster ~venv ~hosts ~paths d
        with
        | exception e -> QCheck.Test.fail_reportf "check raised %s" (Printexc.to_string e)
        | _ -> true)
      | Error msg ->
        let located =
          if Filename.extension name = ".sh" then names_a_line name msg
          else starts_with ~prefix:("decompile: " ^ name ^ ": ") msg
        in
        located || QCheck.Test.fail_reportf "unlocated error %S" msg)

(* The parent's decompiler and checker (reference_decompile.ml,
   reference_artifact_check.ml) as oracles: on every mutated bundle, in
   both grammars and both scopes, the two pipelines give the same Error
   text, or the same violations in the same order with the same counts.
   The one difference allowed is the class ceil, which only the new
   decompiler reads: its Ceil_mismatch violations are dropped before the
   comparison, and where it alone fails, its error must be the ceil's
   ("net class ceil"). *)
let prop_matches_reference_checker =
  let mapping = sample_mapping ~seed:11 ~guests:16 () in
  let cluster, venv, hosts, paths = tenant_pieces mapping in
  let bundles =
    List.concat_map
      (fun format ->
        [
          (Compile.of_mapping ~format mapping).Compile.files;
          (Compile.of_tenant ~format ~cluster ~venv ~id:3 ~hosts ~paths ()).Compile.files;
        ])
      [ Spec.Shell; Spec.Json ]
  in
  let contains ~sub s =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  QCheck.Test.make ~name:"decompile and check agree with the old pipeline on mutated bundles"
    ~count:1500
    (QCheck.make
       ~print:(fun (b, f, ms) ->
         Printf.sprintf "bundle %d file %d: %s" b f
           (String.concat ", " (List.map show_mutation ms)))
       QCheck.Gen.(
         triple (int_bound 3) (int_bound 2) (list_size (int_range 1 3) gen_mutation)))
    (fun (b, f, ms) ->
      let files = List.nth bundles b in
      let name = fst (List.nth files f) in
      let files =
        List.map
          (fun (n, c) ->
            if n = name then (n, List.fold_left apply_mutation c ms) else (n, c))
          files
      in
      let full = b mod 2 = 0 in
      let ceil_error msg = contains ~sub:"net class ceil" msg in
      match (Decompile.run ~files, Reference_decompile.run ~files) with
      | Error e, Error e' ->
        e = e' || ceil_error e
        || QCheck.Test.fail_reportf "errors differ:\n%s\n%s" e e'
      | Error e, Ok _ ->
        ceil_error e || QCheck.Test.fail_reportf "only the new decompiler fails: %s" e
      | Ok _, Error e' -> QCheck.Test.fail_reportf "only the old decompiler fails: %s" e'
      | Ok d, Ok d' ->
        let r =
          if full then Check.check ~mapping d
          else Check.check_tenant ~cluster ~venv ~hosts ~paths d
        in
        let r' =
          if full then Reference_artifact_check.check ~mapping d'
          else Reference_artifact_check.check_tenant ~cluster ~venv ~hosts ~paths d'
        in
        let shown =
          List.filter_map (fun v ->
              match v with
              | Check.Ceil_mismatch _ -> None
              | v -> Some (Check.violation_label v, Format.asprintf "%a" Check.pp_violation v))
            r.Check.violations
        in
        let shown' =
          List.map
            (fun v ->
              ( Reference_artifact_check.violation_label v,
                Format.asprintf "%a" Reference_artifact_check.pp_violation v ))
            r'.Reference_artifact_check.violations
        in
        (shown = shown'
        && r.Check.launches_checked = r'.Reference_artifact_check.launches_checked
        && r.Check.classes_checked = r'.Reference_artifact_check.classes_checked)
        || QCheck.Test.fail_reportf "reports differ:\n%s\n---\n%s"
             (Format.asprintf "%a" Check.pp_report r)
             (Format.asprintf "%a" Reference_artifact_check.pp_report r'))

let test_shell_error_names_line () =
  let b = Compile.of_mapping ~format:Spec.Shell (sample_mapping ()) in
  let files =
    with_file "net.sh"
      (fun c ->
        let lines = String.split_on_char '\n' c in
        String.concat "\n"
          (List.mapi
             (fun i l ->
               if i = 5 then "tc filter add dev pe0 parent 1: handle x fw flowid 1:16"
               else l)
             lines))
      b.Compile.files
  in
  (match Decompile.run ~files with
  | Ok _ -> Alcotest.fail "a filter on a device outside its block should not decompile"
  | Error msg ->
    Alcotest.(check bool) ("line 6 named: " ^ msg) true
      (starts_with ~prefix:"decompile: net.sh line 6: " msg));
  (* a class left without its filter line is reported at its block's
     "# link" header *)
  let lines = String.split_on_char '\n' (List.assoc "net.sh" b.Compile.files) in
  let rec first_filter i = function
    | l :: rest ->
      if starts_with ~prefix:"tc filter" l then i else first_filter (i + 1) rest
    | [] -> Alcotest.fail "no filter line"
  in
  let k = first_filter 0 lines in
  let header =
    List.fold_left max 0
      (List.mapi
         (fun i l -> if i < k && starts_with ~prefix:"# link" l then i + 1 else 0)
         lines)
  in
  let files =
    with_file "net.sh"
      (fun _ -> String.concat "\n" (List.filteri (fun i _ -> i <> k) lines))
      b.Compile.files
  in
  match Decompile.run ~files with
  | Ok _ -> Alcotest.fail "a class without its filter line should not decompile"
  | Error msg ->
    Alcotest.(check bool) ("header line named: " ^ msg) true
      (starts_with
         ~prefix:(Printf.sprintf "decompile: net.sh line %d: net: link e" header)
         msg)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "hmn_artifact"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "shell grammar" `Quick test_roundtrip_shell;
          Alcotest.test_case "json grammar" `Quick test_roundtrip_json;
          Alcotest.test_case "fat-tree topology" `Quick test_roundtrip_fat_tree;
          Alcotest.test_case "byte-deterministic" `Quick test_deterministic;
          Alcotest.test_case "disk write/read" `Quick test_write_read_dir;
          q prop_roundtrip_every_mapper;
          q prop_matches_reference_compiler;
        ] );
      ( "corruptions",
        [
          Alcotest.test_case "tampered rate" `Quick test_tampered_rate;
          Alcotest.test_case "tampered ceil" `Quick test_tampered_ceil;
          Alcotest.test_case "dropped VM line" `Quick test_dropped_vm_line;
          Alcotest.test_case "duplicated qdisc class" `Quick test_duplicated_class;
          Alcotest.test_case "tampered schema version" `Quick test_tampered_schema;
          Alcotest.test_case "compact manifest checks clean" `Quick
            test_compact_manifest_checks_clean;
          Alcotest.test_case "payload digit changed" `Quick test_payload_digit_changed;
          Alcotest.test_case "shell error names its line" `Quick
            test_shell_error_names_line;
          q prop_hostile_bundles;
          q prop_matches_reference_checker;
        ] );
      ( "tenant",
        [
          Alcotest.test_case "delta round trip" `Quick test_tenant_roundtrip;
          Alcotest.test_case "misplacement flagged" `Quick
            test_tenant_misplacement_flagged;
        ] );
    ]
