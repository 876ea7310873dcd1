(** List helpers. *)

val take : int -> 'a list -> 'a list
(** First [n] elements (fewer if the list is shorter). [n < 0] is treated
    as [0]. *)

val drop : int -> 'a list -> 'a list
(** List without its first [n] elements. *)

val min_by : ('a -> float) -> 'a list -> 'a
(** Element minimizing [f]; earliest on ties. Raises on empty list. *)

val max_by : ('a -> float) -> 'a list -> 'a
(** Dual of {!min_by}. *)

val sort_by_desc : ('a -> float) -> 'a list -> 'a list
(** Stable sort, descending by key. *)

val group_by : ('a -> 'k) -> 'a list -> ('k * 'a list) list
(** Groups elements by key, preserving first-seen key order and element
    order within each group. Keys compared with structural equality. *)

val pairs : 'a list -> ('a * 'a) list
(** All unordered pairs of distinct positions: [pairs [1;2;3]] is
    [[(1,2); (1,3); (2,3)]]. *)
