let shuffle rng xs =
  for i = Array.length xs - 1 downto 1 do
    let j = Rng.int rng ~bound:(i + 1) in
    Hmn_prelude.Array_ext.swap xs i j
  done

let choice rng xs =
  if Array.length xs = 0 then invalid_arg "Sample.choice: empty array";
  xs.(Rng.int rng ~bound:(Array.length xs))

let choose_k rng k xs =
  let n = Array.length xs in
  if k < 0 || k > n then invalid_arg "Sample.choose_k: bad k";
  let pool = Array.copy xs in
  for i = 0 to k - 1 do
    let j = i + Rng.int rng ~bound:(n - i) in
    Hmn_prelude.Array_ext.swap pool i j
  done;
  Array.sub pool 0 k

let weighted_index rng weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Sample.weighted_index: empty weights";
  Array.iter
    (fun w -> if w < 0. then invalid_arg "Sample.weighted_index: negative weight")
    weights;
  let total = Hmn_prelude.Float_ext.sum weights in
  if total <= 0. then invalid_arg "Sample.weighted_index: all-zero weights";
  let target = Rng.float rng *. total in
  let acc = ref 0. and found = ref (n - 1) and i = ref 0 in
  (try
     while !i < n do
       acc := !acc +. weights.(!i);
       if target < !acc then begin
         found := !i;
         raise Exit
       end;
       incr i
     done
   with Exit -> ());
  !found
