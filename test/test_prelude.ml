(* Tests for hmn_prelude: numeric helpers, array/list utilities, the
   table renderer, unit conversions. *)

open Hmn_prelude

let check_float = Alcotest.(check (float 1e-9))

(* ---- Float_ext ---- *)

let test_approx_equal () =
  Alcotest.(check bool) "identical" true (Float_ext.approx 1.0 1.0);
  Alcotest.(check bool) "within eps" true (Float_ext.approx 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "outside eps" false (Float_ext.approx 1.0 1.1);
  Alcotest.(check bool) "relative for large" true
    (Float_ext.approx ~eps:1e-9 1e12 (1e12 +. 1.))

let test_clamp () =
  check_float "below" 0. (Float_ext.clamp ~lo:0. ~hi:1. (-5.));
  check_float "above" 1. (Float_ext.clamp ~lo:0. ~hi:1. 5.);
  check_float "inside" 0.5 (Float_ext.clamp ~lo:0. ~hi:1. 0.5);
  Alcotest.check_raises "inverted bounds"
    (Invalid_argument "Float_ext.clamp: lo > hi") (fun () ->
      ignore (Float_ext.clamp ~lo:1. ~hi:0. 0.5))

let test_lerp () =
  check_float "t=0" 2. (Float_ext.lerp 2. 8. 0.);
  check_float "t=1" 8. (Float_ext.lerp 2. 8. 1.);
  check_float "midpoint" 5. (Float_ext.lerp 2. 8. 0.5)

let test_sum_kahan () =
  check_float "empty" 0. (Float_ext.sum [||]);
  check_float "simple" 6. (Float_ext.sum [| 1.; 2.; 3. |]);
  (* Kahan keeps small terms that naive summation drops. *)
  let xs = Array.make 10_000 1e-8 in
  xs.(0) <- 1e8;
  let s = Float_ext.sum xs in
  Alcotest.(check bool) "compensated" true
    (Float.abs (s -. (1e8 +. 9_999e-8)) < 1e-6)

let test_mean () =
  check_float "mean" 2. (Float_ext.mean [| 1.; 2.; 3. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Float_ext.mean: empty array")
    (fun () -> ignore (Float_ext.mean [||]))

let test_is_finite () =
  Alcotest.(check bool) "finite" true (Float_ext.is_finite 1.0);
  Alcotest.(check bool) "inf" false (Float_ext.is_finite infinity);
  Alcotest.(check bool) "nan" false (Float_ext.is_finite Float.nan)

(* ---- Array_ext ---- *)

let test_sum_by () =
  check_float "doubles" 12. (Array_ext.sum_by (fun x -> 2. *. x) [| 1.; 2.; 3. |]);
  check_float "empty" 0. (Array_ext.sum_by Fun.id [||])

let test_min_max_by () =
  Alcotest.(check int) "min_by" 3 (Array_ext.min_by float_of_int [| 5; 3; 4 |]);
  Alcotest.(check int) "max_by" 5 (Array_ext.max_by float_of_int [| 5; 3; 4 |]);
  (* Ties resolve to the earliest element. *)
  Alcotest.(check (pair int int)) "tie" (1, 0)
    (let xs = [| (1, 0); (1, 1) |] in
     Array_ext.min_by (fun (a, _) -> float_of_int a) xs);
  Alcotest.check_raises "empty" (Invalid_argument "Array_ext.arg_min: empty array")
    (fun () -> ignore (Array_ext.min_by Fun.id [||]))

let test_arg_min_max () =
  Alcotest.(check int) "arg_min" 1 (Array_ext.arg_min float_of_int [| 5; 3; 4 |]);
  Alcotest.(check int) "arg_max" 0 (Array_ext.arg_max float_of_int [| 5; 3; 4 |])

let test_sort_by () =
  let xs = [| 1; 3; 2 |] in
  Array_ext.sort_by_desc float_of_int xs;
  Alcotest.(check (array int)) "descending" [| 3; 2; 1 |] xs

let test_sort_stability () =
  (* Equal keys keep their input order. *)
  let xs = [| ("c", 0.); ("a", 1.); ("b", 1.) |] in
  Array_ext.sort_by_desc snd xs;
  Alcotest.(check (list string)) "stable" [ "a"; "b"; "c" ]
    (Array.to_list (Array.map fst xs))

let test_swap_find_count () =
  let xs = [| 1; 2; 3 |] in
  Array_ext.swap xs 0 2;
  Alcotest.(check (array int)) "swap" [| 3; 2; 1 |] xs;
  Alcotest.(check (option int)) "find hit" (Some 1)
    (Array_ext.find_index_opt (( = ) 2) xs);
  Alcotest.(check (option int)) "find miss" None
    (Array_ext.find_index_opt (( = ) 9) xs);
  Alcotest.(check int) "count" 2 (Array_ext.count (fun x -> x > 1) xs)

(* ---- List_ext ---- *)

let test_take_drop () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (List_ext.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take too many" [ 1 ] (List_ext.take 5 [ 1 ]);
  Alcotest.(check (list int)) "take negative" [] (List_ext.take (-1) [ 1 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (List_ext.drop 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop all" [] (List_ext.drop 5 [ 1; 2 ])

let test_list_min_max () =
  Alcotest.(check int) "min_by" 3 (List_ext.min_by float_of_int [ 5; 3; 4 ]);
  Alcotest.(check int) "max_by" 5 (List_ext.max_by float_of_int [ 5; 3; 4 ]);
  Alcotest.check_raises "empty" (Invalid_argument "List_ext.min_by: empty list")
    (fun () -> ignore (List_ext.min_by Fun.id []))

let test_group_by () =
  let groups = List_ext.group_by (fun x -> x mod 2) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  Alcotest.(check (list int)) "odds first (first-seen order)" [ 1; 3; 5 ]
    (List.assoc 1 groups);
  Alcotest.(check (list int)) "evens" [ 2; 4 ] (List.assoc 0 groups)

let test_pairs () =
  Alcotest.(check (list (pair int int)))
    "pairs" [ (1, 2); (1, 3); (2, 3) ] (List_ext.pairs [ 1; 2; 3 ]);
  Alcotest.(check (list (pair int int))) "singleton" [] (List_ext.pairs [ 1 ])

(* ---- Pretty_table ---- *)

let test_table_render () =
  let t = Pretty_table.create ~header:[ "a"; "bb" ] () in
  Pretty_table.add_row t [ "1"; "2" ];
  Pretty_table.add_row t [ "10"; "20" ];
  let out = Pretty_table.render t in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.sub out 0 1 = " ");
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "line count (header + rule + 2 rows + trailing)" 5
    (List.length lines);
  Alcotest.(check string) "first row right-aligned" " 1   2" (List.nth lines 2);
  Alcotest.(check string) "second row right-aligned" "10  20" (List.nth lines 3)

let test_table_align_left () =
  let t =
    Pretty_table.create
      ~aligns:[ Pretty_table.Left; Pretty_table.Right ]
      ~header:[ "name"; "v" ] ()
  in
  Pretty_table.add_row t [ "x"; "1" ];
  let lines = String.split_on_char '\n' (Pretty_table.render t) in
  Alcotest.(check string) "left padding" "x     1" (List.nth lines 2)

let test_table_arity_errors () =
  let t = Pretty_table.create ~header:[ "a" ] () in
  Alcotest.check_raises "row arity"
    (Invalid_argument "Pretty_table.add_row: arity mismatch") (fun () ->
      Pretty_table.add_row t [ "1"; "2" ]);
  Alcotest.check_raises "aligns arity"
    (Invalid_argument "Pretty_table.create: aligns/header arity mismatch")
    (fun () -> ignore (Pretty_table.create ~aligns:[] ~header:[ "a" ] ()))

(* ---- Units ---- *)

let test_conversions () =
  check_float "kbps" 0.175 (Units.mbps_of_kbps 175.);
  check_float "gb" 2048. (Units.mb_of_gb 2.);
  check_float "tb" 3072. (Units.gb_of_tb 3.);
  check_float "ms" 0.005 (Units.seconds_of_ms 5.)

let test_pretty_units () =
  Alcotest.(check string) "gbps display" "1.00Gbps"
    (Format.asprintf "%a" Units.pp_bandwidth 1000.);
  Alcotest.(check string) "kbps display" "175kbps"
    (Format.asprintf "%a" Units.pp_bandwidth 0.175);
  Alcotest.(check string) "gb display" "2.00GB"
    (Format.asprintf "%a" Units.pp_memory 2048.);
  Alcotest.(check string) "tb display" "2.00TB"
    (Format.asprintf "%a" Units.pp_storage 2048.)

(* ---- Domain_pool ---- *)

let test_pool_many_tiny_tasks () =
  Domain_pool.with_pool ~jobs:4 (fun pool ->
      let hits = Atomic.make 0 in
      for _ = 1 to 1_000 do
        Domain_pool.run pool (fun () -> Atomic.incr hits)
      done;
      Domain_pool.wait pool;
      Alcotest.(check int) "all tasks ran" 1_000 (Atomic.get hits))

let test_pool_map_array_order () =
  Domain_pool.with_pool ~jobs:3 (fun pool ->
      let xs = Array.init 100 Fun.id in
      let ys = Domain_pool.map_array pool (fun x -> x * x) xs in
      Alcotest.(check (array int)) "in input order" (Array.map (fun x -> x * x) xs) ys)

let test_pool_exception_propagation () =
  Domain_pool.with_pool ~jobs:2 (fun pool ->
      let survivors = Atomic.make 0 in
      for i = 1 to 20 do
        Domain_pool.run pool (fun () ->
            if i = 7 then failwith "task 7 exploded" else Atomic.incr survivors)
      done;
      Alcotest.check_raises "wait re-raises the task's exception"
        (Failure "task 7 exploded") (fun () -> Domain_pool.wait pool);
      (* The failure neither cancelled the other tasks nor poisoned the
         pool: it is reusable after the failed batch. *)
      Alcotest.(check int) "other tasks completed" 19 (Atomic.get survivors);
      Domain_pool.run pool (fun () -> Atomic.incr survivors);
      Domain_pool.wait pool;
      Alcotest.(check int) "usable after failure" 20 (Atomic.get survivors))

let test_pool_reuse_after_wait () =
  Domain_pool.with_pool ~jobs:2 (fun pool ->
      let acc = Atomic.make 0 in
      for batch = 1 to 5 do
        for _ = 1 to 50 do
          Domain_pool.run pool (fun () -> Atomic.incr acc)
        done;
        Domain_pool.wait pool;
        Alcotest.(check int)
          (Printf.sprintf "batch %d drained" batch)
          (batch * 50) (Atomic.get acc)
      done)

let test_pool_misuse () =
  Alcotest.check_raises "zero jobs rejected"
    (Invalid_argument "Domain_pool.create: jobs must be >= 1") (fun () ->
      ignore (Domain_pool.create ~jobs:0 ()));
  let pool = Domain_pool.create ~jobs:1 () in
  Alcotest.(check int) "jobs recorded" 1 (Domain_pool.jobs pool);
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Domain_pool.run: pool is shut down") (fun () ->
      Domain_pool.run pool (fun () -> ()))

(* ---- Json ---- *)

let test_json_print () =
  let v =
    Json.Obj
      [
        ("a", Json.int 1);
        ("b", Json.Arr [ Json.Bool true; Json.Null; Json.str "x" ]);
        ("c", Json.float 1.5);
      ]
  in
  Alcotest.(check string) "minified"
    {|{"a":1,"b":[true,null,"x"],"c":1.5}|}
    (Json.to_string v);
  Alcotest.(check bool) "pretty contains newlines" true
    (String.contains (Json.to_string ~pretty:true v) '\n')

let test_json_parse_basic () =
  let check_ok input expected =
    match Json.of_string input with
    | Ok v -> Alcotest.(check string) input expected (Json.to_string v)
    | Error e -> Alcotest.fail e
  in
  check_ok {|{"a": 1, "b": [true, null]}|} {|{"a":1,"b":[true,null]}|};
  check_ok "  42  " "42";
  check_ok {|"hi\nthere"|} {|"hi\nthere"|};
  check_ok "[-1.5e2]" "[-150]";
  check_ok "{}" "{}";
  check_ok "[]" "[]"

let test_json_parse_escapes () =
  (match Json.of_string {|"Aé€"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "unicode escapes" "A\xc3\xa9\xe2\x82\xac" s
  | _ -> Alcotest.fail "expected a string");
  match Json.of_string {|"😀"|} with
  | Ok (Json.Str s) ->
    Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected a string"

let test_json_parse_errors () =
  let fails input =
    Alcotest.(check bool) input true (Result.is_error (Json.of_string input))
  in
  fails "{";
  fails "[1,]";
  fails {|{"a" 1}|};
  fails "tru";
  fails "1 2";
  fails {|"unterminated|};
  fails ""

let test_json_accessors () =
  let v = Json.Obj [ ("n", Json.int 3); ("s", Json.str "x"); ("l", Json.Arr [ Json.int 1 ]) ] in
  Alcotest.(check bool) "member ok" true (Result.is_ok (Json.member "n" v));
  Alcotest.(check bool) "member missing" true (Result.is_error (Json.member "zz" v));
  Alcotest.(check (result int string)) "to_int" (Ok 3)
    (Result.bind (Json.member "n" v) Json.to_int);
  Alcotest.(check bool) "to_int on non-integer" true
    (Result.is_error (Json.to_int (Json.float 1.5)));
  Alcotest.(check (result int string)) "to_int at the bottom of the range"
    (Ok min_int) (Json.to_int (Json.float (-0x1p62)));
  Alcotest.(check bool) "to_int beyond the int range" true
    (Result.is_error (Json.to_int (Json.float 0x1p62))
    && Result.is_error (Json.to_int (Json.float 1e19)));
  Alcotest.(check bool) "to_str wrong type" true
    (Result.is_error (Result.bind (Json.member "n" v) Json.to_str))

let prop_json_roundtrip =
  (* Random JSON trees survive print-then-parse. *)
  let rec gen_value depth =
    QCheck.Gen.(
      if depth = 0 then
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.int i) small_signed_int;
            map (fun s -> Json.str s) (string_size ~gen:printable (int_range 0 10));
          ]
      else
        frequency
          [
            (2, gen_value 0);
            ( 1,
              map (fun xs -> Json.Arr xs) (list_size (int_range 0 4) (gen_value (depth - 1)))
            );
            ( 1,
              map
                (fun kvs ->
                  (* Duplicate keys would not round-trip through assoc
                     lookup; deduplicate. *)
                  let seen = Hashtbl.create 8 in
                  Json.Obj
                    (List.filter
                       (fun (k, _) ->
                         if Hashtbl.mem seen k then false
                         else begin
                           Hashtbl.add seen k ();
                           true
                         end)
                       kvs))
                (list_size (int_range 0 4)
                   (pair (string_size ~gen:printable (int_range 1 6)) (gen_value (depth - 1))))
            );
          ])
  in
  QCheck.Test.make ~name:"JSON print/parse round-trip" ~count:300
    (QCheck.make (gen_value 3))
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> v = v'
      | Error _ -> false)

let prop_json_parser_never_raises =
  (* Fuzz: arbitrary bytes produce Ok or Error, never an exception. *)
  QCheck.Test.make ~name:"JSON parser is total on arbitrary input" ~count:500
    QCheck.(string_of_size Gen.(int_range 0 40))
    (fun s ->
      match Json.of_string s with Ok _ | Error _ -> true)

(* ---- Json printer, equality and parser against the old code ---- *)

(* Numbers at the edges of the printer's two rules: signed zeros, NaNs
   of both signs (two payloads each), the largest integers below 1e15,
   1e15 itself, subnormals, integers at and beyond 2^53, infinities. *)
let special_floats =
  [
    0.; -0.;
    Int64.float_of_bits 0x7ff8000000000000L; Int64.float_of_bits 0xfff8000000000000L;
    Int64.float_of_bits 0x7ff0000000000001L; Int64.float_of_bits 0xfff0000000000001L;
    1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15; 1e15 +. 1.; 1e15 -. 0.5;
    Int64.float_of_bits 1L; -.Int64.float_of_bits 1L;
    Int64.float_of_bits 0x000fffffffffffffL; Float.min_float;
    9007199254740992.; 9007199254740994.; -9007199254740992.; 0x1p60; 1e16; 1e300;
    Float.max_float; Float.infinity; Float.neg_infinity;
    0.1; 1. /. 3.; -1.5; 1.; -1.; 123456789.;
  ]

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl special_floats);
        (3, map Int64.float_of_bits ui64);
        (2, map float_of_int (int_range (-2_000_000) 2_000_000));
        (1, map Float.round (float_range (-2e15) 2e15));
        (2, float);
      ])

let arb_float = QCheck.make ~print:(fun x -> Printf.sprintf "%h" x) gen_float

let prop_number_rule =
  QCheck.Test.make ~name:"number_to_string matches the old Printf rule" ~count:5000
    arb_float (fun x -> Json.number_to_string x = Reference_json.number_to_string x)

(* Numbers where the renderer's own %.17g runs: magnitudes in
   [1e-6, 2^53) drawn uniformly and log-uniformly, the doubles beside
   every power of ten in reach and beside the range's edges, negatives,
   and exact ties at the 17th digit: n / 2^m with n * 5^m of 18 digits,
   so the digit past the 17th is a 5 followed by nothing. *)
let gen_fast_float =
  QCheck.Gen.(
    let neighbours x = oneofl [ Float.pred x; x; Float.succ x ] in
    let tie =
      int_range 1 55 >>= fun m ->
      let scale = 5. ** float_of_int m in
      let lo = Float.ceil (1e17 /. scale) and hi = Float.floor (1e18 /. scale) in
      if hi < lo || hi >= 0x1p53 then return 0.5
      else map (fun u -> Float.ldexp (Float.round (lo +. (u *. (hi -. lo)))) (-m)) (float_bound_inclusive 1.)
    in
    let magnitude =
      frequency
        [
          (3, float_range 1e-6 0x1p53);
          (3, map (fun e -> 10. ** e) (float_range (-6.) 15.95));
          (2, int_range (-6) 16 >>= fun k -> neighbours (10. ** float_of_int k));
          (1, oneofl [ 1e-6; 0x1p53 ] >>= neighbours);
          (2, tie);
        ]
    in
    map2 (fun neg x -> if neg then Float.neg x else x) bool magnitude)

let prop_number_rule_fast_range =
  QCheck.Test.make ~name:"number_to_string matches the old rule where it computes digits"
    ~count:300_000
    (QCheck.make ~print:(fun x -> Printf.sprintf "%h" x) gen_fast_float)
    (fun x -> Json.number_to_string x = Reference_json.number_to_string x)

let test_number_edges () =
  List.iter
    (fun x ->
      Alcotest.(check string) (Printf.sprintf "%h" x)
        (Reference_json.number_to_string x) (Json.number_to_string x))
    special_floats;
  Alcotest.(check string) "negative zero" "-0" (Json.number_to_string (-0.));
  Alcotest.(check string) "1e15" "1000000000000000" (Json.number_to_string 1e15)

(* Trees whose leaves come from the edge numbers and from strings with
   every byte, so escapes and \u sequences are printed and parsed. *)
let rec gen_tree depth =
  QCheck.Gen.(
    let leaf =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun x -> Json.Num x) gen_float;
          map (fun s -> Json.Str s) (string_size ~gen:char (int_range 0 8));
          map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 8));
        ]
    in
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 1,
            map (fun xs -> Json.Arr xs) (list_size (int_range 0 4) (gen_tree (depth - 1)))
          );
          ( 1,
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_range 0 4)
                 (pair
                    (string_size ~gen:printable (int_range 0 4))
                    (gen_tree (depth - 1)))) );
        ])

(* A NaN of the same sign with another payload, the other zero, the
   next double, or an edge number. *)
let gen_twin x =
  QCheck.Gen.(
    let nans_like =
      List.filter
        (fun y -> Float.is_nan y && Float.sign_bit y = Float.sign_bit x)
        special_floats
    in
    oneof
      ([ return x; return (Float.neg x); return (Float.succ x); oneofl special_floats ]
      @ if Float.is_nan x then [ oneofl nans_like ] else []))

(* [v] with a few leaves changed, often to something that prints alike. *)
let rec gen_perturbed v =
  QCheck.Gen.(
    match v with
    | Json.Num x ->
      frequency [ (2, return v); (1, map (fun y -> Json.Num y) (gen_twin x)) ]
    | Json.Str s -> frequency [ (6, return v); (1, return (Json.Str (s ^ "\""))) ]
    | Json.Bool b -> frequency [ (6, return v); (1, return (Json.Bool (not b))) ]
    | Json.Null -> frequency [ (6, return v); (1, return (Json.Arr [])) ]
    | Json.Arr xs -> map (fun ys -> Json.Arr ys) (flatten_l (List.map gen_perturbed xs))
    | Json.Obj fs ->
      map
        (fun fs -> Json.Obj fs)
        (flatten_l (List.map (fun (k, v) -> map (fun v -> (k, v)) (gen_perturbed v)) fs)))

let print_pair (a, b) = Reference_json.to_string a ^ "  vs  " ^ Reference_json.to_string b

let prop_equal_is_printed_equality =
  QCheck.Test.make ~name:"Json.equal holds exactly when the printed texts are equal"
    ~count:3000
    (QCheck.make ~print:print_pair
       QCheck.Gen.(
         gen_tree 3 >>= fun a ->
         frequency
           [
             (1, return (a, a));
             (4, map (fun b -> (a, b)) (gen_perturbed a));
             (1, map (fun b -> (a, b)) (gen_tree 3));
           ]))
    (fun (a, b) ->
      Json.equal a b = (Reference_json.to_string a = Reference_json.to_string b)
      && Json.equal a b = (Json.to_string a = Json.to_string b))

let prop_printer_matches_old =
  QCheck.Test.make ~name:"printer output equals the old printer's, compact and pretty"
    ~count:1000
    (QCheck.make ~print:Reference_json.to_string (gen_tree 3))
    (fun v ->
      Json.to_string v = Reference_json.to_string v
      && Json.to_string ~pretty:true v = Reference_json.to_string ~pretty:true v)

(* The grammar's characters, one at a time. *)
let gen_noise =
  let chars = {|{}[]",:0123456789-+.eEtrufalsn \/u|} ^ "\t\n" in
  QCheck.Gen.oneofl (List.init (String.length chars) (String.get chars))

(* [text] cut short, with a byte replaced or inserted, or whole. *)
let damage text =
  QCheck.Gen.(
    let n = String.length text in
    if n = 0 then return text
    else
      int_range 0 (n - 1) >>= fun i ->
      gen_noise >>= fun c ->
      oneofl
        [
          String.sub text 0 i;
          String.sub text 0 i ^ String.make 1 c ^ String.sub text (i + 1) (n - i - 1);
          String.sub text 0 i ^ String.make 1 c ^ String.sub text i (n - i);
          text;
        ])

(* Texts near JSON: printed trees cut short or with a byte replaced or
   inserted, and short strings over the grammar's characters. *)
let gen_near_json =
  QCheck.Gen.(
    let noise = gen_noise in
    frequency
      [
        ( 4,
          gen_tree 3 >>= fun v ->
          bool >>= fun pretty -> damage (Reference_json.to_string ~pretty v) );
        (2, string_size ~gen:noise (int_range 0 40));
        (1, string_size ~gen:char (int_range 0 20));
      ])

let prop_parser_matches_old =
  QCheck.Test.make ~name:"parser gives the old parser's values and error messages"
    ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_near_json)
    (fun text ->
      match (Json.of_string text, Reference_json.of_string text) with
      | Ok a, Ok b -> Json.equal a b
      | Error e, Error e' -> String.equal e e'
      | _ -> false)

(* Top-level objects with members [of_string_raw] keeps as text,
   printed and mostly damaged. *)
let raw_keys = [ "problem"; "venv" ]

let gen_doc_with_raw_members =
  QCheck.Gen.(
    list_size (int_range 0 4) (pair (oneofl [ "problem"; "venv"; "counts" ]) (gen_tree 3))
    >>= fun members ->
    bool >>= fun pretty ->
    let text = Reference_json.to_string ~pretty (Json.Obj members) in
    frequency [ (1, return text); (3, damage text) ])

(* The value-free reading of the raw members against the old parser:
   the same error text, or the same tree with those members left out and
   their ranges parsing to the old parser's values. *)
let prop_raw_members_match_old =
  QCheck.Test.make
    ~name:"members kept as text: the parser's verdict and error, the old parser's values"
    ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(frequency [ (3, gen_doc_with_raw_members); (1, gen_near_json) ]))
    (fun text ->
      let same_error e =
        match (Json.of_string text, Reference_json.of_string text) with
        | Error e', Error e'' -> String.equal e e' && String.equal e e''
        | _ -> false
      in
      match (Json.of_string_raw ~raw:raw_keys text, Reference_json.of_string text) with
      | Error e, _ -> same_error e
      | Ok _, Error _ -> false
      | Ok (tree, spans), Ok v ->
        let is_raw (k, _) = List.mem k raw_keys in
        let kept, raws =
          match v with
          | Json.Obj members ->
            (Json.Obj (List.filter (fun m -> not (is_raw m)) members), List.filter is_raw members)
          | v -> (v, [])
        in
        Json.equal tree kept
        && List.compare_lengths spans raws = 0
        && List.for_all2
             (fun (k, start, stop) (k', v') ->
               k = k'
               &&
               match Json.of_string (String.sub text start (stop - start)) with
               | Ok x -> Json.equal x v'
               | Error _ -> false)
             spans raws)

let prop_number_grammar =
  QCheck.Test.make ~name:"the number-token grammar is float_of_string_opt's on [0-9+-.eE]"
    ~count:5000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         string_size
           ~gen:(frequency [ (6, char_range '0' '9'); (1, oneofl [ '+'; '-'; '.'; 'e'; 'E' ]) ])
           (int_range 0 8)))
    (fun tok -> Json.is_number tok = Option.is_some (float_of_string_opt tok))

let test_raw_member_nesting () =
  let doc k = {|{"a": 1, "problem": |} ^ String.make k '[' ^ String.make k ']' ^ "}" in
  List.iter
    (fun k ->
      let text = doc k in
      Alcotest.(check (result unit string))
        (Printf.sprintf "%d deep" k)
        (Result.map ignore (Json.of_string text))
        (Result.map ignore (Json.of_string_raw ~raw:[ "problem" ] text)))
    [ Json.max_depth - 1; Json.max_depth; Json.max_depth + 1 ];
  match Json.of_string_raw ~raw:[ "problem" ] (doc 3) with
  | Ok (tree, [ ("problem", start, stop) ]) ->
    Alcotest.(check string) "the rest" {|{"a":1}|} (Json.to_string tree);
    Alcotest.(check string) "the range" "[[[]]]" (String.sub (doc 3) start (stop - start))
  | _ -> Alcotest.fail "one raw member expected"

let test_deep_indent () =
  (* past the 32 levels one substring of spaces covers *)
  let rec deep k =
    if k = 0 then Json.Obj [ ("x", Json.int 1) ] else Json.Arr [ deep (k - 1); Json.Null ]
  in
  List.iter
    (fun k ->
      Alcotest.(check string) (Printf.sprintf "depth %d" k)
        (Reference_json.to_string ~pretty:true (deep k))
        (Json.to_string ~pretty:true (deep k)))
    [ 0; 31; 32; 33; 64; 65; 100 ]

let test_nesting_limit () =
  let nested k = String.make k '[' ^ String.make k ']' in
  let deep_error = Printf.sprintf "JSON parse error at offset %d: nesting deeper than %d"
      Json.max_depth Json.max_depth in
  Alcotest.(check bool) "at the limit" true
    (Result.is_ok (Json.of_string (nested Json.max_depth)));
  Alcotest.(check (result reject string)) "limit + 1" (Error deep_error)
    (Result.map (fun _ -> ()) (Json.of_string (nested (Json.max_depth + 1))));
  let objects k =
    String.concat "" (List.init k (fun _ -> {|{"a":|})) ^ "1" ^ String.make k '}'
  in
  Alcotest.(check bool) "objects at the limit" true
    (Result.is_ok (Json.of_string (objects Json.max_depth)));
  Alcotest.(check bool) "objects at limit + 1" true
    (Result.is_error (Json.of_string (objects (Json.max_depth + 1))));
  Alcotest.(check (result reject string)) "a million '['" (Error deep_error)
    (Result.map (fun _ -> ()) (Json.of_string (String.make 1_000_000 '[')))

(* ---- properties ---- *)

let prop_clamp_in_range =
  QCheck.Test.make ~name:"clamp lands inside the interval" ~count:500
    QCheck.(triple (float_range (-100.) 100.) (float_range (-100.) 100.) float)
    (fun (a, b, x) ->
      let lo = Float.min a b and hi = Float.max a b in
      let r = Float_ext.clamp ~lo ~hi x in
      r >= lo && r <= hi)

let prop_sum_matches_fold =
  QCheck.Test.make ~name:"Kahan sum close to naive fold" ~count:300
    QCheck.(array_of_size Gen.(int_range 0 100) (float_range (-1e6) 1e6))
    (fun xs ->
      let naive = Array.fold_left ( +. ) 0. xs in
      Float_ext.approx ~eps:1e-6 naive (Float_ext.sum xs))

(* [resift] after one key change lands the element where a fresh
   stable [sort_by_desc] puts it. Keys come from a small menu holding
   both zeros, so ties are the common case, and the elements start in
   a random order so that ties are not also in index order; the new
   key may be lower, higher, equal, or the other zero. *)
let prop_resift_matches_sort =
  QCheck.Test.make ~name:"resift after one key change equals a fresh sort_by_desc"
    ~count:2000
    QCheck.(
      triple
        (array_of_size Gen.(int_range 1 30) (int_bound 6))
        (pair small_nat (int_bound 6))
        (int_bound 1_000_000))
    (fun (keys, (at, fresh), seed) ->
      let menu = [| -1.; -0.; 0.; 1.; 2.; 2.5; 3. |] in
      let key = Array.map (fun k -> menu.(k)) keys in
      let n = Array.length key in
      let xs = Array.init n Fun.id in
      let st = Random.State.make [| seed |] in
      for i = n - 1 downto 1 do
        Array_ext.swap xs i (Random.State.int st (i + 1))
      done;
      Array_ext.sort_by_desc (fun i -> key.(i)) xs;
      let p = at mod n in
      let moved = xs.(p) in
      key.(moved) <- menu.(fresh);
      let expected = Array.copy xs in
      Array_ext.sort_by_desc (fun i -> key.(i)) expected;
      let q = Array_ext.resift (fun a b -> Float.compare key.(b) key.(a)) xs p in
      xs = expected && xs.(q) = moved)

let prop_take_drop_partition =
  QCheck.Test.make ~name:"take n @ drop n = original" ~count:300
    QCheck.(pair small_nat (small_list int))
    (fun (n, xs) -> List_ext.take n xs @ List_ext.drop n xs = xs)

let prop_group_by_preserves_elements =
  QCheck.Test.make ~name:"group_by preserves the multiset" ~count:300
    QCheck.(small_list small_int)
    (fun xs ->
      let grouped = List_ext.group_by (fun x -> x mod 3) xs in
      let back = List.concat_map snd grouped in
      List.sort compare back = List.sort compare xs)

let prop_pairs_count =
  QCheck.Test.make ~name:"pairs yields n(n-1)/2 elements" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 30) unit)
    (fun xs ->
      let n = List.length xs in
      List.length (List_ext.pairs xs) = n * (n - 1) / 2)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "hmn_prelude"
    [
      ( "float_ext",
        [
          Alcotest.test_case "approx" `Quick test_approx_equal;
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "lerp" `Quick test_lerp;
          Alcotest.test_case "kahan sum" `Quick test_sum_kahan;
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "is_finite" `Quick test_is_finite;
        ] );
      ( "array_ext",
        [
          Alcotest.test_case "sum_by" `Quick test_sum_by;
          Alcotest.test_case "min/max_by" `Quick test_min_max_by;
          Alcotest.test_case "arg_min/max" `Quick test_arg_min_max;
          Alcotest.test_case "sort_by" `Quick test_sort_by;
          Alcotest.test_case "sort stability" `Quick test_sort_stability;
          Alcotest.test_case "swap/find/count" `Quick test_swap_find_count;
        ] );
      ( "list_ext",
        [
          Alcotest.test_case "take/drop" `Quick test_take_drop;
          Alcotest.test_case "min/max_by" `Quick test_list_min_max;
          Alcotest.test_case "group_by" `Quick test_group_by;
          Alcotest.test_case "pairs" `Quick test_pairs;
        ] );
      ( "pretty_table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "left align" `Quick test_table_align_left;
          Alcotest.test_case "arity errors" `Quick test_table_arity_errors;
        ] );
      ( "units",
        [
          Alcotest.test_case "conversions" `Quick test_conversions;
          Alcotest.test_case "pretty printing" `Quick test_pretty_units;
        ] );
      ( "domain_pool",
        [
          Alcotest.test_case "many tiny tasks" `Quick test_pool_many_tiny_tasks;
          Alcotest.test_case "map_array order" `Quick test_pool_map_array_order;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagation;
          Alcotest.test_case "reuse after wait" `Quick test_pool_reuse_after_wait;
          Alcotest.test_case "misuse" `Quick test_pool_misuse;
        ] );
      ( "json",
        [
          Alcotest.test_case "print" `Quick test_json_print;
          Alcotest.test_case "parse basics" `Quick test_json_parse_basic;
          Alcotest.test_case "escapes" `Quick test_json_parse_escapes;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_parser_never_raises;
          Alcotest.test_case "number edges" `Quick test_number_edges;
          Alcotest.test_case "deep indentation" `Quick test_deep_indent;
          Alcotest.test_case "nesting limit" `Quick test_nesting_limit;
          Alcotest.test_case "raw member nesting limit" `Quick test_raw_member_nesting;
          q prop_number_rule;
          q prop_number_rule_fast_range;
          q prop_equal_is_printed_equality;
          q prop_printer_matches_old;
          q prop_parser_matches_old;
          q prop_raw_members_match_old;
          q prop_number_grammar;
        ] );
      ( "properties",
        [
          q prop_clamp_in_range;
          q prop_sum_matches_fold;
          q prop_resift_matches_sort;
          q prop_take_drop_partition;
          q prop_group_by_preserves_elements;
          q prop_pairs_count;
        ] );
    ]
