let rec take n = function
  | [] -> []
  | x :: xs -> if n <= 0 then [] else x :: take (n - 1) xs

let rec drop n = function
  | [] -> []
  | _ :: xs as l -> if n <= 0 then l else drop (n - 1) xs

let min_by f = function
  | [] -> invalid_arg "List_ext.min_by: empty list"
  | x :: xs ->
    let best, _ =
      List.fold_left
        (fun (b, bk) y ->
          let k = f y in
          if k < bk then (y, k) else (b, bk))
        (x, f x) xs
    in
    best

let max_by f xs = min_by (fun x -> -.f x) xs

let sort_by_desc key xs =
  List.stable_sort (fun a b -> Float.compare (key b) (key a)) xs

let group_by key xs =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun x ->
      let k = key x in
      match Hashtbl.find_opt tbl k with
      | Some acc -> Hashtbl.replace tbl k (x :: acc)
      | None ->
        Hashtbl.add tbl k [ x ];
        order := k :: !order)
    xs;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order

let pairs xs =
  let rec go = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ go rest
  in
  go xs
