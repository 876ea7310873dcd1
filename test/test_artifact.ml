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
      match Decompile.read_dir ~dir with
      | Error e -> Alcotest.fail e
      | Ok files ->
        Alcotest.(check bool) "same bytes back" true (files = b.Compile.files);
        (match Decompile.run ~files with
        | Error e -> Alcotest.fail e
        | Ok d -> check_clean "disk round trip" (Check.check ~mapping d)))

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
        ] );
      ( "corruptions",
        [
          Alcotest.test_case "tampered rate" `Quick test_tampered_rate;
          Alcotest.test_case "dropped VM line" `Quick test_dropped_vm_line;
          Alcotest.test_case "duplicated qdisc class" `Quick test_duplicated_class;
          Alcotest.test_case "tampered schema version" `Quick test_tampered_schema;
        ] );
      ( "tenant",
        [
          Alcotest.test_case "delta round trip" `Quick test_tenant_roundtrip;
          Alcotest.test_case "misplacement flagged" `Quick
            test_tenant_misplacement_flagged;
        ] );
    ]
