(** A complete solution: a placement of every guest plus a physical path
    for every virtual link. *)

type t = {
  placement : Placement.t;
  link_map : Link_map.t;
}

val make : placement:Placement.t -> link_map:Link_map.t -> t
(** Raises [Invalid_argument] when the two halves were built from
    different problem instances. Completeness and feasibility are
    checked by [Hmn_validate.Validator.check], not here, so partial
    mappings can be inspected while a heuristic is still running. *)

val problem : t -> Problem.t

val objective : t -> float
(** The paper's load-balance factor of the placement (Eq. 10). *)

val total_hops : t -> int
(** Sum of physical hops over mapped links — a secondary quality
    signal for the benches. *)

val mean_path_latency : t -> float
(** Mean accumulated latency over mapped inter-host links; [0.] when
    there are none. *)
