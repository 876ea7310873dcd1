(** Mutable virtual-link → physical-path assignment with residual
    bandwidth accounting (Eq. 9). *)

type t

val create : Problem.t -> t
(** No links mapped; the residual network at full capacity. *)

val problem : t -> Problem.t
val residual : t -> Hmn_routing.Residual.t
(** Live view of the remaining bandwidth; mutated by {!assign} /
    {!unassign}. *)

val path_of : t -> vlink:int -> Hmn_routing.Path.t option

val assign : t -> vlink:int -> Hmn_routing.Path.t -> (unit, string) result
(** Reserves the virtual link's bandwidth along the path. Fails when the
    link is already mapped or capacity is lacking; the path's
    endpoint/shape validity is the caller's (or [Hmn_validate.Validator]'s)
    concern. *)

val unassign : t -> vlink:int -> (unit, string) result

val n_mapped : t -> int
val all_mapped : t -> bool

val iter_mapped : t -> (vlink:int -> Hmn_routing.Path.t -> unit) -> unit
