(** Background defragmentation: when churn has skewed the residual-CPU
    distribution past a threshold, migrate guests of resident tenants —
    the paper's Migration stage applied to the live multi-tenant
    cluster.

    Each candidate tenant is {e replayed} onto the residual cluster that
    excludes the tenant itself (guaranteed feasible: its own usage was
    part of what was subtracted), then {!Incremental.rebalance}
    proposes one move at a time; each committed move swaps a fresh
    {!Tenant.t} into the occupancy and fires the validation hook. *)

type config = {
  interval_s : float;  (** simulated seconds between checks *)
  trigger : float;
      (** run a round when the occupied LBF exceeds [trigger] times the
          {e empty} cluster's LBF (heterogeneous hosts give the empty
          cluster a nonzero Eq. 10 value — the natural baseline) *)
  max_moves_per_round : int;
}

val default : config
(** 120 s interval, trigger 1.0, at most 4 moves per round. *)

val round :
  ?on_move:(int -> unit) ->
  occupancy:Occupancy.t ->
  threshold:float ->
  max_moves:int ->
  unit ->
  int
(** One defragmentation round: sweeps resident tenants (ascending id),
    replaying each and committing single rebalance moves, until the
    occupancy's LBF drops to [threshold] (an {e absolute} Eq. 10 value),
    [max_moves] is reached, or a full sweep makes no progress. Returns
    the number of moves committed. [on_move] fires after each commit
    with the moved tenant's id — the service hangs per-move validation
    and journaling on it. *)
