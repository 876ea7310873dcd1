(** Sampling utilities over collections. *)

val shuffle : Rng.t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choice : Rng.t -> 'a array -> 'a
(** Uniform element. Raises [Invalid_argument] on an empty array. *)

val choose_k : Rng.t -> int -> 'a array -> 'a array
(** [choose_k rng k xs] draws [k] distinct elements uniformly (partial
    Fisher–Yates). Raises if [k < 0] or [k > Array.length xs]. *)

val weighted_index : Rng.t -> float array -> int
(** Index drawn proportionally to the (non-negative) weights. Raises if
    weights are empty, negative, or all zero. *)
