(** Array helpers used by the heuristics and the experiment harness. *)

val sum_by : ('a -> float) -> 'a array -> float
(** [sum_by f xs] is the sum of [f x] over all elements. *)

val min_by : ('a -> float) -> 'a array -> 'a
(** [min_by f xs] returns an element minimizing [f]. Ties resolve to the
    earliest such element. Raises [Invalid_argument] on an empty array. *)

val max_by : ('a -> float) -> 'a array -> 'a
(** Dual of {!min_by}. *)

val arg_min : ('a -> float) -> 'a array -> int
(** Index of the first minimizing element. Raises on empty input. *)

val arg_max : ('a -> float) -> 'a array -> int
(** Index of the first maximizing element. Raises on empty input. *)

val sort_by_desc : ('a -> float) -> 'a array -> unit
(** [sort_by_desc key xs] sorts [xs] in place, descending by [key]. Stable. *)

val resift : ('a -> 'a -> int) -> 'a array -> int -> int
(** [resift cmp xs i] restores [Array.stable_sort cmp] order after
    [xs.(i)] alone changed how it compares, and returns its new index.
    [xs] must have been sorted by [cmp] before the change (so a stable
    [sort_by_desc key] order is kept with
    [cmp a b = Float.compare (key b) (key a)]). The element lands where
    a fresh stable sort of the current [xs] would put it: when it now
    sorts later, past every element that sorts strictly before it and
    ahead of its new equals; when earlier, ahead of every element that
    sorts strictly after it and behind its new equals; otherwise it
    stays. Costs O(distance moved) calls of [cmp]. *)

val swap : 'a array -> int -> int -> unit
(** [swap xs i j] exchanges elements [i] and [j]. *)

val find_index_opt : ('a -> bool) -> 'a array -> int option
(** Index of the first element satisfying the predicate, if any. *)

val count : ('a -> bool) -> 'a array -> int
(** Number of elements satisfying the predicate. *)
