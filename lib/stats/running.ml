type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;  (* sum of squared deviations *)
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.n

let require_data t name =
  if t.n = 0 then invalid_arg ("Running." ^ name ^ ": no samples")

let mean t =
  require_data t "mean";
  t.mean

let stddev t =
  require_data t "stddev";
  sqrt (t.m2 /. float_of_int t.n)

let min t =
  require_data t "min";
  t.min

let max t =
  require_data t "max";
  t.max
