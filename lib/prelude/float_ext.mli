(** Small numeric helpers shared across the project.

    All functions are total unless stated otherwise. *)

val approx : ?eps:float -> float -> float -> bool
(** [approx ?eps a b] is [true] when [a] and [b] differ by at most [eps]
    (default [1e-9]) in absolute terms, or by [eps] relative to the larger
    magnitude when both are large. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] restricts [x] to the closed interval [[lo, hi]].
    Raises [Invalid_argument] if [lo > hi]. *)

val lerp : float -> float -> float -> float
(** [lerp a b t] linearly interpolates between [a] and [b]; [t = 0.] gives
    [a], [t = 1.] gives [b]. *)

val is_finite : float -> bool
(** [is_finite x] is [true] when [x] is neither infinite nor NaN. *)

val sum : float array -> float
(** Kahan-compensated sum of the array. [sum [||] = 0.]. *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)
