let sum_by f xs = Array.fold_left (fun acc x -> acc +. f x) 0. xs

let extremum_index name better f xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg name;
  let best = ref 0 and best_key = ref (f xs.(0)) in
  for i = 1 to n - 1 do
    let k = f xs.(i) in
    if better k !best_key then begin
      best := i;
      best_key := k
    end
  done;
  !best

let arg_min f xs = extremum_index "Array_ext.arg_min: empty array" ( < ) f xs
let arg_max f xs = extremum_index "Array_ext.arg_max: empty array" ( > ) f xs
let min_by f xs = xs.(arg_min f xs)
let max_by f xs = xs.(arg_max f xs)

let sort_by_desc key xs =
  Array.stable_sort (fun a b -> Float.compare (key b) (key a)) xs

let resift cmp xs i =
  let x = xs.(i) in
  let j = ref i in
  (* Sorts later now: past every element that sorts strictly before it,
     ahead of its new equals. *)
  while !j + 1 < Array.length xs && cmp xs.(!j + 1) x < 0 do
    xs.(!j) <- xs.(!j + 1);
    incr j
  done;
  (* Sorts earlier now: ahead of every element that sorts strictly
     after it, behind its new equals. *)
  if !j = i then
    while !j > 0 && cmp x xs.(!j - 1) < 0 do
      xs.(!j) <- xs.(!j - 1);
      decr j
    done;
  xs.(!j) <- x;
  !j

let swap xs i j =
  let t = xs.(i) in
  xs.(i) <- xs.(j);
  xs.(j) <- t

let find_index_opt p xs =
  let n = Array.length xs in
  let rec go i = if i >= n then None else if p xs.(i) then Some i else go (i + 1) in
  go 0

let count p xs = Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 xs
