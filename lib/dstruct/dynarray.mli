(** Growable array (OCaml 5.1 predates [Stdlib.Dynarray]).

    Amortized O(1) push; O(1) random access. Used by graph builders that
    accumulate edges before freezing them into flat arrays. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] out of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** Raises [Invalid_argument] out of bounds. *)

val to_array : 'a t -> 'a array
(** Fresh array of the current contents. *)

val iter : ('a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
