(* Tests for hmn_dstruct: heaps, dynamic arrays, bitsets. The heaps are
   cross-checked against plain sorting. *)

module Binary_heap = Hmn_dstruct.Binary_heap
module Indexed_heap = Hmn_dstruct.Indexed_heap
module Dynarray = Hmn_dstruct.Dynarray
module Bitset = Hmn_dstruct.Bitset

(* ---- Binary_heap ---- *)

let test_bh_basic () =
  let h = Binary_heap.create ~cmp:Int.compare () in
  Alcotest.(check bool) "empty" true (Binary_heap.is_empty h);
  List.iter (Binary_heap.push h) [ 5; 1; 4; 2; 3 ];
  Alcotest.(check int) "length" 5 (Binary_heap.length h);
  Alcotest.(check (option int)) "peek" (Some 1) (Binary_heap.peek h);
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 4; 5 ]
    (Binary_heap.to_sorted_list h);
  Alcotest.(check int) "to_sorted_list non-destructive" 5 (Binary_heap.length h)

let test_bh_pop_order () =
  let h = Binary_heap.create ~cmp:Int.compare () in
  List.iter (Binary_heap.push h) [ 3; 1; 2 ];
  Alcotest.(check (option int)) "pop 1" (Some 1) (Binary_heap.pop h);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Binary_heap.pop h);
  Binary_heap.push h 0;
  Alcotest.(check (option int)) "interleaved push" (Some 0) (Binary_heap.pop h);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Binary_heap.pop h);
  Alcotest.(check (option int)) "empty" None (Binary_heap.pop h);
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Binary_heap.pop_exn: empty heap") (fun () ->
      ignore (Binary_heap.pop_exn h))

let test_bh_custom_cmp () =
  let h = Binary_heap.create ~cmp:(fun a b -> Int.compare b a) () in
  List.iter (Binary_heap.push h) [ 1; 3; 2 ];
  Alcotest.(check (option int)) "max-heap" (Some 3) (Binary_heap.pop h)

let test_bh_floats () =
  (* Regression guard for the float-array representation. *)
  let h = Binary_heap.create ~cmp:Float.compare () in
  List.iter (Binary_heap.push h) [ 3.5; 1.5; 2.5 ];
  Alcotest.(check (option (float 0.))) "float min" (Some 1.5) (Binary_heap.pop h)

let test_bh_clear_and_grow () =
  let h = Binary_heap.create ~capacity:2 ~cmp:Int.compare () in
  for i = 100 downto 1 do
    Binary_heap.push h i
  done;
  Alcotest.(check int) "grew" 100 (Binary_heap.length h);
  Binary_heap.clear h;
  Alcotest.(check bool) "cleared" true (Binary_heap.is_empty h);
  Binary_heap.push h 7;
  Alcotest.(check (option int)) "usable after clear" (Some 7) (Binary_heap.pop h)

(* ---- Indexed_heap ---- *)

let test_ih_basic () =
  let h = Indexed_heap.create 10 in
  Indexed_heap.insert h 3 5.;
  Indexed_heap.insert h 7 2.;
  Indexed_heap.insert h 1 8.;
  Alcotest.(check bool) "mem" true (Indexed_heap.mem h 3);
  Alcotest.(check bool) "not mem" false (Indexed_heap.mem h 0);
  Alcotest.(check (option (float 0.))) "priority" (Some 5.) (Indexed_heap.priority h 3);
  Alcotest.(check (option (pair int (float 0.)))) "pop min" (Some (7, 2.))
    (Indexed_heap.pop_min h);
  Alcotest.(check bool) "removed" false (Indexed_heap.mem h 7)

let test_ih_decrease () =
  let h = Indexed_heap.create 10 in
  Indexed_heap.insert h 0 10.;
  Indexed_heap.insert h 1 5.;
  Indexed_heap.decrease h 0 1.;
  Alcotest.(check (option (pair int (float 0.)))) "decreased wins" (Some (0, 1.))
    (Indexed_heap.pop_min h);
  Alcotest.check_raises "increase rejected"
    (Invalid_argument "Indexed_heap.decrease: priority increase") (fun () ->
      Indexed_heap.decrease h 1 9.)

let test_ih_insert_or_decrease () =
  let h = Indexed_heap.create 4 in
  Indexed_heap.insert_or_decrease h 2 5.;
  Indexed_heap.insert_or_decrease h 2 3.;
  Indexed_heap.insert_or_decrease h 2 7. (* no-op: higher *);
  Alcotest.(check (option (float 0.))) "kept the minimum" (Some 3.)
    (Indexed_heap.priority h 2)

let test_ih_errors () =
  let h = Indexed_heap.create 2 in
  Indexed_heap.insert h 0 1.;
  Alcotest.check_raises "duplicate insert"
    (Invalid_argument "Indexed_heap.insert: key already present") (fun () ->
      Indexed_heap.insert h 0 2.);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Indexed_heap.insert: key out of range") (fun () ->
      Indexed_heap.insert h 5 1.);
  Alcotest.check_raises "decrease absent"
    (Invalid_argument "Indexed_heap.decrease: key absent") (fun () ->
      Indexed_heap.decrease h 1 0.)

let test_ih_dijkstra_pattern () =
  (* The exact usage pattern of Dijkstra: repeated insert_or_decrease
     then drain; priorities must come out non-decreasing. *)
  let h = Indexed_heap.create 100 in
  let rng = Hmn_rng.Rng.create 13 in
  for k = 0 to 99 do
    Indexed_heap.insert h k (Hmn_rng.Rng.float rng *. 100.)
  done;
  for _ = 0 to 199 do
    let k = Hmn_rng.Rng.int rng ~bound:100 in
    match Indexed_heap.priority h k with
    | Some p when p > 1. -> Indexed_heap.decrease h k (p /. 2.)
    | _ -> ()
  done;
  let last = ref neg_infinity in
  let ok = ref true in
  let rec drain () =
    match Indexed_heap.pop_min h with
    | None -> ()
    | Some (_, p) ->
      if p < !last then ok := false;
      last := p;
      drain ()
  in
  drain ();
  Alcotest.(check bool) "monotone drain" true !ok

(* ---- Dynarray ---- *)

let test_dyn_basic () =
  let d = Dynarray.create () in
  Alcotest.(check int) "empty" 0 (Dynarray.length d);
  for i = 0 to 99 do
    Dynarray.push d i
  done;
  Alcotest.(check int) "length" 100 (Dynarray.length d);
  Alcotest.(check int) "get" 42 (Dynarray.get d 42);
  Dynarray.set d 42 (-1);
  Alcotest.(check int) "set" (-1) (Dynarray.get d 42)

let test_dyn_conversions () =
  let d = Dynarray.create () in
  List.iter (Dynarray.push d) [ 1; 2; 3 ];
  Alcotest.(check (array int)) "roundtrip" [| 1; 2; 3 |] (Dynarray.to_array d);
  Alcotest.(check int) "fold" 6 (Dynarray.fold_left ( + ) 0 d);
  let acc = ref [] in
  Dynarray.iter (fun x -> acc := x :: !acc) d;
  Alcotest.(check (list int)) "iter order" [ 3; 2; 1 ] !acc

let test_dyn_errors () =
  let d = Dynarray.create () in
  Dynarray.push d 1;
  Alcotest.check_raises "get oob"
    (Invalid_argument "Dynarray.get: index out of bounds") (fun () ->
      ignore (Dynarray.get d 1));
  Alcotest.check_raises "set oob"
    (Invalid_argument "Dynarray.set: index out of bounds") (fun () ->
      Dynarray.set d (-1) 0)

(* ---- Bitset ---- *)

let test_bs_basic () =
  let b = Bitset.create 70 in
  Alcotest.(check int) "capacity" 70 (Bitset.capacity b);
  Alcotest.(check bool) "initially absent" false (Bitset.mem b 65);
  Bitset.add b 65;
  Bitset.add b 0;
  Bitset.add b 65 (* idempotent *);
  Alcotest.(check bool) "added" true (Bitset.mem b 65);
  Alcotest.(check int) "cardinal" 2 (Bitset.cardinal b);
  Bitset.remove b 65;
  Alcotest.(check bool) "removed" false (Bitset.mem b 65);
  Alcotest.(check int) "cardinal after remove" 1 (Bitset.cardinal b)

let test_bs_copy_iter () =
  let b = Bitset.create 16 in
  List.iter (Bitset.add b) [ 1; 5; 9 ];
  let c = Bitset.copy b in
  Bitset.add c 2;
  Alcotest.(check bool) "copy independent" false (Bitset.mem b 2);
  Alcotest.(check (list int)) "to_list sorted" [ 1; 5; 9 ] (Bitset.to_list b);
  Bitset.clear b;
  Alcotest.(check int) "cleared" 0 (Bitset.cardinal b)

let test_bs_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: element out of range")
    (fun () -> ignore (Bitset.mem b 8))

(* ---- properties ---- *)

let prop_bh_sorts =
  QCheck.Test.make ~name:"binary heap drains in sorted order" ~count:300
    QCheck.(list small_int)
    (fun xs ->
      let h = Binary_heap.create ~cmp:Int.compare () in
      List.iter (Binary_heap.push h) xs;
      Binary_heap.to_sorted_list h = List.sort Int.compare xs)

let prop_ih_drain_sorted =
  QCheck.Test.make ~name:"indexed heap drains monotonically" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range 0. 100.))
    (fun prios ->
      let n = List.length prios in
      let h = Indexed_heap.create n in
      List.iteri (fun k p -> Indexed_heap.insert h k p) prios;
      let rec drain last =
        match Indexed_heap.pop_min h with
        | None -> true
        | Some (_, p) -> p >= last && drain p
      in
      drain neg_infinity)

let prop_bitset_mirrors_set =
  QCheck.Test.make ~name:"bitset mirrors a reference set" ~count:200
    QCheck.(list (pair bool (int_range 0 63)))
    (fun ops ->
      let b = Bitset.create 64 in
      let reference = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add b i;
            Hashtbl.replace reference i ()
          end
          else begin
            Bitset.remove b i;
            Hashtbl.remove reference i
          end)
        ops;
      Bitset.cardinal b = Hashtbl.length reference
      && List.for_all (fun i -> Bitset.mem b i = Hashtbl.mem reference i)
           (List.init 64 Fun.id))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "hmn_dstruct"
    [
      ( "binary_heap",
        [
          Alcotest.test_case "basic" `Quick test_bh_basic;
          Alcotest.test_case "pop order" `Quick test_bh_pop_order;
          Alcotest.test_case "custom cmp" `Quick test_bh_custom_cmp;
          Alcotest.test_case "floats" `Quick test_bh_floats;
          Alcotest.test_case "clear & grow" `Quick test_bh_clear_and_grow;
        ] );
      ( "indexed_heap",
        [
          Alcotest.test_case "basic" `Quick test_ih_basic;
          Alcotest.test_case "decrease-key" `Quick test_ih_decrease;
          Alcotest.test_case "insert_or_decrease" `Quick test_ih_insert_or_decrease;
          Alcotest.test_case "errors" `Quick test_ih_errors;
          Alcotest.test_case "dijkstra pattern" `Quick test_ih_dijkstra_pattern;
        ] );
      ( "dynarray",
        [
          Alcotest.test_case "basic" `Quick test_dyn_basic;
          Alcotest.test_case "conversions" `Quick test_dyn_conversions;
          Alcotest.test_case "errors" `Quick test_dyn_errors;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bs_basic;
          Alcotest.test_case "copy & iter" `Quick test_bs_copy_iter;
          Alcotest.test_case "bounds" `Quick test_bs_bounds;
        ] );
      ( "properties",
        [
          q prop_bh_sorts;
          q prop_ih_drain_sorted;
          q prop_bitset_mirrors_set;
        ] );
    ]
