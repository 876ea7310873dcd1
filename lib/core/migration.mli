(** HMN stage 2 — Migration (paper §4.2).

    Greedy load-balancing on top of the Hosting assignment. Each round:

    + pick the most loaded host (smallest residual CPU) that still has
      guests, ties to the first in {!Hmn_testbed.Cluster.host_ids};
    + on it, pick the guest with the smallest total bandwidth to
      co-located guests (moving it off-host strains the network
      least);
    + scan target hosts from least loaded upward (ties in
      [host_ids] order) and perform the first move that strictly
      improves the load-balance factor (Eq. 10) and fits.

    The scan ends early at the first target from which no move can
    lower the LBF: the move's exact variance change, 2v(a - b + v)/n
    for a guest of [v] MIPS leaving residual [a] for residual [b],
    only grows as [b] falls, and once it exceeds the stddev's rounding
    error no later target can pass. Targets before that point get the
    exact check, bitwise the LBF
    {!Hmn_mapping.Objective.load_balance_after_migration} returns, so
    the moves are those of the full scan.

    Rounds repeat while a move happened; when no move from the most
    loaded host improves the objective, the stage ends. The LBF is
    strictly decreasing across moves, which bounds the loop; an
    explicit [max_moves] cap (default [16 * guests]) guards against
    floating-point pathologies. *)

type stats = {
  moves : int;  (** migrations performed *)
  lbf_before : float;
  lbf_after : float;
}

val run : ?max_moves:int -> Hmn_mapping.Placement.t -> stats
(** Mutates the placement in place. Never fails: zero moves is a valid
    outcome. With metrics enabled it adds the exact LBF evaluations
    made to [migration.moves_tried] (targets past the early end are
    not evaluated, so not counted) and the moves to
    [migration.moves_accepted]. *)

val loop :
  Hmn_mapping.Placement.t ->
  max_moves:int ->
  move:(guest:int -> host:int -> bool) ->
  int * int
(** The stage's rounds on the placement until one makes no move or
    [max_moves] moves were made: each picks the origin and its victim,
    scans the targets, and calls [move] on each target whose move
    would strictly lower the LBF until one returns [true] (the move
    was made). A [move] that returns [false] must leave every guest
    where it was. Returns the moves made and the exact LBF evaluations.
    {!run} and [Hmn_online.Incremental.rebalance] share it, each with
    its own [move].

    The loop keeps the hosts' residual CPU and their scan order across
    rounds and re-sorts only the hosts a round changed, so a round
    costs one stddev per evaluated target rather than a sort and
    fresh copies of every host's residual. *)

val colocated_bandwidth : Hmn_mapping.Placement.t -> guest:int -> float
(** Sum of virtual-link bandwidth from [guest] to guests on the same
    host — the stage's victim-selection key (exposed for tests). *)
