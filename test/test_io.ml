(* Tests for hmn_io: JSON round-trips for problems and mappings, file
   persistence, and rejection of malformed or tampered documents. *)

module Json = Hmn_prelude.Json
module Codec = Hmn_io.Codec
module Cluster = Hmn_testbed.Cluster
module Resources = Hmn_testbed.Resources
module Venv = Hmn_vnet.Virtual_env
module Problem = Hmn_mapping.Problem
module Validator = Hmn_validate.Validator
module Mapping = Hmn_mapping.Mapping

let sample_problem ?(seed = 321) ?(guests = 40) () =
  let rng = Hmn_rng.Rng.create seed in
  let cluster =
    Hmn_testbed.Cluster_gen.switched_cluster ~vmm:Hmn_testbed.Vmm.none ~n:10 ~rng ()
  in
  let venv =
    Hmn_vnet.Venv_gen.generate ~scale_to_fit:(cluster, 0.8)
      ~profile:Hmn_vnet.Workload.high_level ~n:guests ~density:0.05 ~rng ()
  in
  Problem.make ~cluster ~venv

let sample_mapping ?seed ?guests () =
  let problem = sample_problem ?seed ?guests () in
  match (Hmn_core.Hmn.run problem).Hmn_core.Mapper.result with
  | Ok m -> m
  | Error f -> Alcotest.fail f.Hmn_core.Mapper.reason

let problems_equal a b =
  let ca = a.Problem.cluster and cb = b.Problem.cluster in
  let va = a.Problem.venv and vb = b.Problem.venv in
  Cluster.n_nodes ca = Cluster.n_nodes cb
  && Hmn_graph.Graph.n_edges (Cluster.graph ca) = Hmn_graph.Graph.n_edges (Cluster.graph cb)
  && Venv.n_guests va = Venv.n_guests vb
  && Venv.n_vlinks va = Venv.n_vlinks vb
  && Resources.equal (Cluster.total_capacity ca) (Cluster.total_capacity cb)
  && Resources.equal (Venv.total_demand va) (Venv.total_demand vb)
  && List.for_all
       (fun i ->
         Resources.equal (Venv.demand va i) (Venv.demand vb i)
         && (Venv.guest va i).Hmn_vnet.Guest.name = (Venv.guest vb i).Hmn_vnet.Guest.name)
       (List.init (Venv.n_guests va) Fun.id)

let test_problem_roundtrip () =
  let problem = sample_problem () in
  match Codec.problem_of_json (Codec.problem_to_json problem) with
  | Error e -> Alcotest.fail e
  | Ok problem' ->
    Alcotest.(check bool) "problems equal" true (problems_equal problem problem')

let test_mapping_roundtrip () =
  let mapping = sample_mapping () in
  let problem = Mapping.problem mapping in
  match Codec.mapping_of_json ~problem (Codec.mapping_to_json mapping) with
  | Error e -> Alcotest.fail e
  | Ok mapping' ->
    Alcotest.(check bool) "valid after reload" true (Validator.is_valid mapping');
    Alcotest.(check (float 1e-9)) "same objective" (Mapping.objective mapping)
      (Mapping.objective mapping');
    Alcotest.(check int) "same hops" (Mapping.total_hops mapping)
      (Mapping.total_hops mapping')

let test_bundle_roundtrip () =
  let mapping = sample_mapping () in
  match Codec.bundle_of_json (Codec.bundle_to_json mapping) with
  | Error e -> Alcotest.fail e
  | Ok mapping' ->
    Alcotest.(check bool) "valid" true (Validator.is_valid mapping');
    Alcotest.(check (float 1e-9)) "objective preserved" (Mapping.objective mapping)
      (Mapping.objective mapping')

let test_bundle_text_roundtrip () =
  (* Through the actual text representation, pretty-printed. *)
  let mapping = sample_mapping ~seed:99 () in
  let text = Json.to_string ~pretty:true (Codec.bundle_to_json mapping) in
  match Result.bind (Json.of_string text) Codec.bundle_of_json with
  | Error e -> Alcotest.fail e
  | Ok mapping' ->
    Alcotest.(check (float 1e-9)) "objective preserved" (Mapping.objective mapping)
      (Mapping.objective mapping')

let test_file_persistence () =
  let mapping = sample_mapping () in
  let path = Filename.temp_file "hmn_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.save_bundle ~path mapping;
      match Codec.load_bundle ~path with
      | Error e -> Alcotest.fail e
      | Ok mapping' ->
        Alcotest.(check bool) "valid" true (Validator.is_valid mapping'));
  (* Missing file is a clean error, not an exception. *)
  Alcotest.(check bool) "missing file" true
    (Result.is_error (Codec.load_bundle ~path:"/nonexistent/nope.json"))

let test_rejects_wrong_format () =
  let problem = sample_problem () in
  let j = Codec.problem_to_json problem in
  Alcotest.(check bool) "bundle loader rejects problem doc" true
    (Result.is_error (Codec.bundle_of_json j));
  Alcotest.(check bool) "problem loader rejects junk" true
    (Result.is_error (Codec.problem_of_json (Json.str "hello")))

let test_rejects_tampered_placement () =
  let mapping = sample_mapping () in
  let problem = Mapping.problem mapping in
  let j = Codec.mapping_to_json mapping in
  (* Point every guest at host 0: memory must overflow and decoding
     must fail through the Placement constructor. *)
  let tampered =
    match j with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "placement", Json.Arr xs ->
               ("placement", Json.Arr (List.map (fun _ -> Json.int 0) xs))
             | field -> field)
           fields)
    | _ -> Alcotest.fail "expected an object"
  in
  Alcotest.(check bool) "tampered placement rejected" true
    (Result.is_error (Codec.mapping_of_json ~problem tampered))

let test_rejects_overdrawn_paths () =
  let mapping = sample_mapping () in
  let problem = Mapping.problem mapping in
  let j = Codec.mapping_to_json mapping in
  (* Duplicate a vlink's path entry: the double reservation must be
     rejected by the Link_map. *)
  let tampered =
    match j with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "paths", Json.Arr (p :: rest) -> ("paths", Json.Arr (p :: p :: rest))
             | field -> field)
           fields)
    | _ -> Alcotest.fail "expected an object"
  in
  Alcotest.(check bool) "duplicate path rejected" true
    (Result.is_error (Codec.mapping_of_json ~problem tampered))

let prop_roundtrip_many_seeds =
  QCheck.Test.make ~name:"bundle round-trip preserves validity across seeds" ~count:15
    QCheck.small_nat
    (fun seed ->
      let problem = sample_problem ~seed:(seed + 1) ~guests:25 () in
      match (Hmn_core.Hmn.run problem).Hmn_core.Mapper.result with
      | Error _ -> true
      | Ok mapping -> (
        match Codec.bundle_of_json (Codec.bundle_to_json mapping) with
        | Error _ -> false
        | Ok mapping' ->
          Validator.is_valid mapping'
          && Hmn_prelude.Float_ext.approx (Mapping.objective mapping)
               (Mapping.objective mapping')))

(* encode -> decode -> re-encode must be the identity on the JSON tree:
   the codec is canonical (decoders rebuild exactly the state the
   encoder will serialise again, with no float drift since no text
   formatting is involved on this path). *)
let prop_reencode_fixpoint =
  QCheck.Test.make ~name:"bundle re-encode is structurally equal" ~count:15
    QCheck.small_nat
    (fun seed ->
      let problem = sample_problem ~seed:(seed + 1000) ~guests:25 () in
      match (Hmn_core.Hmn.run problem).Hmn_core.Mapper.result with
      | Error _ -> true
      | Ok mapping -> (
        let j = Codec.bundle_to_json mapping in
        match Codec.bundle_of_json j with
        | Error _ -> false
        | Ok mapping' -> Codec.bundle_to_json mapping' = j))

(* Over-capacity tampering: shrink every physical link to a bandwidth no
   inter-host path can afford. The bundle loader re-reserves every path
   through the Link_map, so the forgery must fail decoding (or, if it
   ever decoded, the constraints check). *)
let tamper_link_bandwidths ~bw json =
  let map_obj f = function
    | Json.Obj fields -> Json.Obj (List.map f fields)
    | _ -> Alcotest.fail "expected an object"
  in
  map_obj
    (function
      | "problem", problem ->
        ( "problem",
          map_obj
            (function
              | "cluster", cluster ->
                ( "cluster",
                  map_obj
                    (function
                      | "links", Json.Arr links ->
                        ( "links",
                          Json.Arr
                            (List.map
                               (map_obj (function
                                 | "bandwidth_mbps", _ ->
                                   ("bandwidth_mbps", Json.float bw)
                                 | field -> field))
                               links) )
                      | field -> field)
                    cluster )
              | field -> field)
            problem )
      | field -> field)
    json

let test_rejects_tampered_bandwidth () =
  let mapping = sample_mapping () in
  Alcotest.(check bool) "has inter-host links" true (Mapping.total_hops mapping > 0);
  let tampered = tamper_link_bandwidths ~bw:1e-6 (Codec.bundle_to_json mapping) in
  let rejected =
    match Codec.bundle_of_json tampered with
    | Error _ -> true
    | Ok mapping' -> not (Validator.is_valid mapping')
  in
  Alcotest.(check bool) "over-capacity bundle rejected" true rejected

(* ---- hostile input ---- *)

let has_field key = function
  | Json.Obj fields -> List.mem_assoc key fields
  | _ -> false

let set_field key f = function
  | Json.Obj fields ->
    Json.Obj (List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) fields)
  | json -> json

(* [json] with the [k]-th value that [select] picks (children before
   their parent, in document order) replaced by [f] of it. *)
let rewrite_nth ~select ~f k json =
  let seen = ref (-1) in
  let rec go json =
    let json =
      match json with
      | Json.Arr xs -> Json.Arr (List.map go xs)
      | Json.Obj fields -> Json.Obj (List.map (fun (key, v) -> (key, go v)) fields)
      | leaf -> leaf
    in
    if not (select json) then json
    else begin
      incr seen;
      if !seen = k then f json else json
    end
  in
  go json

let count ~select json =
  let n = ref 0 in
  let rec walk json =
    if select json then incr n;
    match json with
    | Json.Arr xs -> List.iter walk xs
    | Json.Obj fields -> List.iter (fun (_, v) -> walk v) fields
    | _ -> ()
  in
  walk json;
  !n

(* Small HMN mappings on a rack-labelled Clos and on an unracked
   torus, the two cluster shapes a bundle can describe. *)
let small_mapping ~seed ~profile cluster_of =
  let rng = Hmn_rng.Rng.create seed in
  let cluster = cluster_of rng in
  let venv =
    Hmn_vnet.Venv_gen.generate ~scale_to_fit:(cluster, 0.5) ~profile ~n:12
      ~density:0.3 ~rng ()
  in
  match (Hmn_core.Hmn.run (Problem.make ~cluster ~venv)).Hmn_core.Mapper.result with
  | Ok m -> m
  | Error f -> Alcotest.fail f.Hmn_core.Mapper.reason

let racked_mapping () =
  small_mapping ~seed:5 ~profile:Hmn_vnet.Workload.high_level (fun rng ->
      Hmn_testbed.Cluster_gen.clos_cluster ~racks:2 ~hosts_per_rack:3 ~spines:2 ~rng ())

let torus_mapping () =
  small_mapping ~seed:6 ~profile:Hmn_vnet.Workload.low_level (fun rng ->
      Hmn_testbed.Cluster_gen.torus_cluster ~rows:2 ~cols:3 ~rng ())

let test_rejects_negative_rack () =
  let j = Codec.bundle_to_json (racked_mapping ()) in
  let tampered =
    rewrite_nth ~select:(has_field "rack")
      ~f:(set_field "rack" (fun _ -> Json.int (-1)))
      0 j
  in
  Alcotest.(check bool) "racked" true (tampered <> j);
  Alcotest.(check bool) "negative rack rejected" true
    (Result.is_error (Codec.bundle_of_json tampered))

let test_rejects_int_beyond_range () =
  let j = Codec.bundle_to_json (sample_mapping ()) in
  let tampered =
    rewrite_nth ~select:(has_field "placement")
      ~f:
        (set_field "placement" (function
          | Json.Arr (_ :: rest) -> Json.Arr (Json.float 1e19 :: rest)
          | json -> json))
      0 j
  in
  Alcotest.(check bool) "placement beyond the int range rejected" true
    (Result.is_error (Codec.bundle_of_json tampered))

let test_rejects_non_finite_link () =
  let mapping = sample_mapping () in
  let bundle =
    rewrite_nth ~select:(has_field "bandwidth_mbps")
      ~f:(set_field "bandwidth_mbps" (fun _ -> Json.float Float.infinity))
      0 (Codec.bundle_to_json mapping)
  in
  Alcotest.(check bool) "infinite link bandwidth rejected" true
    (Result.is_error (Codec.bundle_of_json bundle));
  let venv =
    rewrite_nth ~select:(has_field "latency_ms")
      ~f:(set_field "latency_ms" (fun _ -> Json.float Float.nan))
      0
      (Codec.venv_to_json (Mapping.problem mapping).Problem.venv)
  in
  Alcotest.(check bool) "NaN vlink latency rejected" true
    (Result.is_error (Codec.venv_of_json venv))

(* ---- text encoders ---- *)

(* Names that need escaping, and numbers at the edges of the printer's
   number rule: integral below 1e15 in magnitude or not, tiny, and
   integers past 2^53. Records are built directly, so values the
   constructors refuse (negatives) are printed too. *)
let gen_name =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (4, char_range 'a' 'z');
             (1, oneofl [ '"'; '\\'; '\n'; '\t'; '\001'; '\031'; '\127'; '\200'; '\255' ]);
           ])
      (int_range 0 6))

let gen_number =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          oneofl
            [ 0.; -0.; 1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15; 1e-7; -1e-7; 0x1p53;
              0x1p53 +. 2.; 0x1p60; 0.1; 1.5; 1. /. 3.; 123456.789 ] );
        (2, float_range (-1e6) 1e6);
        (1, map float_of_int int);
      ])

let gen_resources =
  QCheck.Gen.map3
    (fun mips mem_mb stor_gb -> { Resources.mips; mem_mb; stor_gb })
    gen_number gen_number gen_number

(* [n] nodes or guests, then edges between them labelled by [label]. *)
let gen_graph n label =
  QCheck.Gen.(
    if n < 2 then return (Hmn_graph.Graph.create ~n ())
    else
      list_size (int_range 0 6)
        (triple (int_bound (n - 1)) (int_bound (n - 2)) (pair gen_number gen_number))
      >|= fun edges ->
      let g = Hmn_graph.Graph.create ~n () in
      List.iter
        (fun (u, d, (bw, lat)) ->
          (* v <> u *)
          let v = if d >= u then d + 1 else d in
          ignore (Hmn_graph.Graph.add_edge g u v (label bw lat)))
        edges;
      g)

let gen_venv =
  QCheck.Gen.(
    int_range 0 5 >>= fun n ->
    array_size (return n)
      (map2 (fun name demand -> Hmn_vnet.Guest.make ~name ~demand) gen_name gen_resources)
    >>= fun guests ->
    gen_graph n (fun bandwidth_mbps latency_ms -> { Hmn_vnet.Vlink.bandwidth_mbps; latency_ms })
    >|= fun graph -> Venv.create ~guests ~graph)

(* A flat cluster (no node has a rack) or a racked one. *)
let gen_cluster =
  QCheck.Gen.(
    bool >>= fun racked ->
    int_range 1 5 >>= fun n ->
    let rack = oneofl [ 0; 3; (1 lsl 53) + 1; max_int ] in
    array_size (return n)
      (map3
         (fun (name, host) capacity r ->
           if host then
             { Hmn_testbed.Node.name; kind = Hmn_testbed.Node.Host; capacity;
               rack = (if racked then Some r else None) }
           else Hmn_testbed.Node.switch ~name)
         (pair gen_name bool) gen_resources rack)
    >>= fun nodes ->
    gen_graph n (fun bandwidth_mbps latency_ms -> { Hmn_testbed.Link.bandwidth_mbps; latency_ms })
    >|= fun graph -> Cluster.create ~nodes ~graph)

let tree_text ~level json =
  let b = Buffer.create 256 in
  Json.to_buffer ~pretty:true ~level b json;
  Buffer.contents b

(* The writer's text, gathered whole, and gathered through a [flush]
   that drains the buffer after every array element. *)
let writer_texts write =
  let whole = Buffer.create 256 in
  write ?flush:None whole;
  let drained = Buffer.create 256 and b = Buffer.create 16 in
  let flush b =
    Buffer.add_buffer drained b;
    Buffer.clear b
  in
  write ?flush:(Some flush) b;
  flush b;
  (Buffer.contents whole, Buffer.contents drained)

let prop_text_encoders_match_trees =
  QCheck.Test.make ~name:"text encoders print the tree encoders' pretty text" ~count:500
    (QCheck.make
       ~print:(fun (level, (cluster, venv)) ->
         Printf.sprintf "level %d\n%s" level
           (Json.to_string ~pretty:true
              (Codec.problem_to_json { Problem.cluster; venv })))
       QCheck.Gen.(pair (int_range 0 3) (pair gen_cluster gen_venv)))
    (fun (level, (cluster, venv)) ->
      let problem = { Problem.cluster; venv } in
      let agree tree write =
        let whole, drained = writer_texts write in
        String.equal whole tree && String.equal drained tree
      in
      agree
        (tree_text ~level (Codec.problem_to_json problem))
        (fun ?flush b -> Codec.problem_to_text ?flush ~level b problem)
      && agree
           (tree_text ~level (Codec.venv_to_json venv))
           (fun ?flush b -> Codec.venv_to_text ?flush ~level b venv))

(* ---- located decode errors ---- *)

(* [json] with element [k] of the array at member path [path] replaced
   by [f] of it. *)
let rec edit_at path k f json =
  match path with
  | [] -> (
    match json with
    | Json.Arr xs -> Json.Arr (List.mapi (fun i x -> if i = k then f x else x) xs)
    | _ -> Alcotest.fail "not an array")
  | key :: rest -> set_field key (edit_at rest k f) json

let remove_field key = function
  | Json.Obj fields -> Json.Obj (List.remove_assoc key fields)
  | json -> json

let check_located what expected = function
  | Ok _ -> Alcotest.failf "%s: a tampered document decoded" what
  | Error msg -> Alcotest.(check string) what expected msg

let test_located_nodes () =
  let j = Codec.problem_to_json (sample_problem ()) in
  check_located "node" {|cluster.nodes[2]: missing field "name"|}
    (Codec.problem_of_json (edit_at [ "cluster"; "nodes" ] 2 (remove_field "name") j))

let test_located_links () =
  let j = Codec.problem_to_json (sample_problem ()) in
  check_located "link" {|cluster.links[7]: missing field "latency_ms"|}
    (Codec.problem_of_json
       (edit_at [ "cluster"; "links" ] 7 (remove_field "latency_ms") j))

let test_located_guests () =
  let j = Codec.problem_to_json (sample_problem ()) in
  check_located "guest" "venv.guests[3].demand.mips: expected a number"
    (Codec.problem_of_json
       (edit_at [ "venv"; "guests" ] 3
          (set_field "demand" (set_field "mips" (fun _ -> Json.str "fast")))
          j))

let test_located_vlinks () =
  let venv = Codec.venv_to_json (sample_problem ()).Problem.venv in
  check_located "vlink" "vlinks[1]: Graph.add_edge: node out of range"
    (Codec.venv_of_json
       (edit_at [ "vlinks" ] 1 (set_field "v" (fun _ -> Json.int 1_000_000)) venv))

let test_located_placement () =
  let j = Codec.bundle_to_json (sample_mapping ()) in
  check_located "placement" "mapping.placement[3]: expected an integer"
    (Codec.bundle_of_json
       (edit_at [ "mapping"; "placement" ] 3 (fun _ -> Json.float 1.5) j))

let test_located_paths () =
  let j = Codec.bundle_to_json (sample_mapping ()) in
  check_located "path" {|mapping.paths[0]: missing field "edges"|}
    (Codec.bundle_of_json (edit_at [ "mapping"; "paths" ] 0 (remove_field "edges") j))

type mutation =
  | Truncate of int
  | Flip of int * int
  | Number of int * float
  | Endpoint of int * bool

let pp_mutation = function
  | Truncate at -> Printf.sprintf "truncate at %d" at
  | Flip (at, mask) -> Printf.sprintf "xor byte %d with %d" at mask
  | Number (k, x) -> Printf.sprintf "number %d := %h" k x
  | Endpoint (k, self) ->
    Printf.sprintf "edge %d endpoint := %s" k (if self then "self" else "dangling")

let is_num = function Json.Num _ -> true | _ -> false
let is_edge json = has_field "u" json && has_field "v" json

let decode text = Result.bind (Json.of_string text) Codec.bundle_of_json

(* Every mutated bundle decodes to [Ok] or [Error] without raising, and
   whatever decodes re-encodes to text that decodes again. *)
let prop_hostile_bundles_never_raise =
  let bundles =
    lazy (Array.map Codec.bundle_to_json [| racked_mapping (); torus_mapping () |])
  in
  let gen =
    QCheck.Gen.(
      pair bool
        (oneof
           [
             map (fun at -> Truncate at) nat;
             map2 (fun at mask -> Flip (at, mask)) nat (int_range 1 255);
             map2
               (fun k x -> Number (k, x))
               nat
               (oneofl [ -1.; 1.5; 0x1p62; 1e19; Float.infinity ]);
             map2 (fun k self -> Endpoint (k, self)) nat bool;
           ]))
  in
  let print (racked, m) =
    Printf.sprintf "%s bundle, %s" (if racked then "racked" else "torus") (pp_mutation m)
  in
  QCheck.Test.make ~name:"hostile bundles decode to Ok or Error, never raise"
    ~count:400 (QCheck.make ~print gen)
    (fun (racked, mutation) ->
      let json = (Lazy.force bundles).(if racked then 0 else 1) in
      let text = Json.to_string json in
      let n = String.length text in
      let result =
        match mutation with
        | Truncate at -> decode (String.sub text 0 (at mod n))
        | Flip (at, mask) ->
          let b = Bytes.of_string text in
          let at = at mod n in
          Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor mask));
          decode (Bytes.to_string b)
        | Number (k, x) ->
          Codec.bundle_of_json
            (rewrite_nth ~select:is_num
               ~f:(fun _ -> Json.float x)
               (k mod count ~select:is_num json)
               json)
        | Endpoint (k, self) ->
          let point edge =
            let target =
              if self then Result.get_ok (Json.member "u" edge) else Json.int 1_000_000
            in
            set_field "v" (fun _ -> target) edge
          in
          Codec.bundle_of_json
            (rewrite_nth ~select:is_edge ~f:point
               (k mod count ~select:is_edge json)
               json)
      in
      match result with
      | Error _ -> true
      | Ok m -> Result.is_ok (decode (Json.to_string (Codec.bundle_to_json m))))

let () =
  Alcotest.run "hmn_io"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "problem" `Quick test_problem_roundtrip;
          Alcotest.test_case "mapping" `Quick test_mapping_roundtrip;
          Alcotest.test_case "bundle" `Quick test_bundle_roundtrip;
          Alcotest.test_case "bundle via text" `Quick test_bundle_text_roundtrip;
          Alcotest.test_case "files" `Quick test_file_persistence;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "wrong format" `Quick test_rejects_wrong_format;
          Alcotest.test_case "tampered placement" `Quick test_rejects_tampered_placement;
          Alcotest.test_case "overdrawn paths" `Quick test_rejects_overdrawn_paths;
          Alcotest.test_case "tampered bandwidth" `Quick
            test_rejects_tampered_bandwidth;
          Alcotest.test_case "negative rack id" `Quick test_rejects_negative_rack;
          Alcotest.test_case "integer beyond the int range" `Quick
            test_rejects_int_beyond_range;
          Alcotest.test_case "non-finite link value" `Quick
            test_rejects_non_finite_link;
        ] );
      ( "located",
        [
          Alcotest.test_case "nodes" `Quick test_located_nodes;
          Alcotest.test_case "links" `Quick test_located_links;
          Alcotest.test_case "guests" `Quick test_located_guests;
          Alcotest.test_case "vlinks" `Quick test_located_vlinks;
          Alcotest.test_case "placement" `Quick test_located_placement;
          Alcotest.test_case "paths" `Quick test_located_paths;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip_many_seeds;
          QCheck_alcotest.to_alcotest prop_reencode_fixpoint;
          QCheck_alcotest.to_alcotest prop_hostile_bundles_never_raise;
          QCheck_alcotest.to_alcotest prop_text_encoders_match_trees;
        ] );
    ]
