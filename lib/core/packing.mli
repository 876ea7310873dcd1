(** Bin-packing placement stages — the paper's future-work "pool of
    heuristics" (§6).

    Each strategy places guests one by one in descending CPU-demand
    order (the classic decreasing variants) and can be combined with
    any routing stage through {!to_mapper}. *)

type strategy =
  | First_fit  (** first host (by id) with room *)
  | Best_fit  (** feasible host with the least residual memory — packs tightly *)
  | Worst_fit  (** feasible host with the most residual CPU — spreads load *)
  | Consolidate
      (** prefer hosts already running guests (first-fit over active
          hosts, opening a new host only when forced) — minimizes the
          number of hosts used, the alternative objective of §6 *)

val strategy_name : strategy -> string

val place :
  strategy ->
  Hmn_mapping.Problem.t ->
  (Hmn_mapping.Placement.t, Mapper.failure) result
(** Places every guest or fails on the first guest that fits nowhere,
    naming it as the failure's [Unplaceable_guest] detail. *)

val to_mapper : strategy -> Mapper.t
(** Placement by the strategy, then the A\*Prune Networking stage.
    Names are ["FFD"], ["BFD"], ["WFD"], ["CONS"]. *)
