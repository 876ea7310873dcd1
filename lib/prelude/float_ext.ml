let approx ?(eps = 1e-9) a b =
  let d = Float.abs (a -. b) in
  if d <= eps then true
  else d <= eps *. Float.max (Float.abs a) (Float.abs b)

let clamp ~lo ~hi x =
  if lo > hi then invalid_arg "Float_ext.clamp: lo > hi";
  if x < lo then lo else if x > hi then hi else x

let lerp a b t = a +. ((b -. a) *. t)

let is_finite x = Float.is_finite x

(* Kahan summation: keeps a running compensation term for lost low-order
   bits so long experiment aggregations stay accurate. *)
let sum xs =
  let total = ref 0. and comp = ref 0. in
  for i = 0 to Array.length xs - 1 do
    let y = xs.(i) -. !comp in
    let t = !total +. y in
    comp := t -. !total -. y;
    total := t
  done;
  !total

let mean xs =
  if Array.length xs = 0 then invalid_arg "Float_ext.mean: empty array";
  sum xs /. float_of_int (Array.length xs)
