(** Objective functions over placements.

    The paper's objective (Eqs. 10–12) is the population standard
    deviation of residual CPU across hosts — the {e load-balance
    factor} (LBF); smaller is better-balanced. An alternative
    consolidation objective (count of hosts in use) implements the
    future-work variant discussed in §6. *)

val residual_cpus : Placement.t -> float array
(** [rproc(c_i)] for every host, in {!Hmn_testbed.Cluster.host_ids}
    order. *)

val stddev : float array -> float
(** Population standard deviation (Kahan mean, then the sum of squared
    deviations in array order) — Eq. (10) over any residual-CPU array.
    [nan] on an empty array. *)

val load_balance_factor : Placement.t -> float
(** Eq. (10). Zero for a single-host cluster. *)

val load_balance_after_migration :
  Placement.t -> guest:int -> host:int -> float option
(** The LBF the placement would have if [guest] moved to [host],
    computed in O(hosts) without mutating the placement; [None] when
    the guest is unassigned, already there, or would not fit. The
    Migration stage evaluates candidate moves with this. *)

val active_hosts : Placement.t -> int
(** Hosts running at least one guest — the consolidation objective. *)
