(** Optimality-gap report: the paper's heuristics measured against the
    exact branch-and-bound baseline ({!Hmn_exact.Solver}).

    A fixed grid of seeded instance classes — 4 to 10 hosts, 8 to 30
    guests, both Table-1 workloads, torus and switched clusters, built
    with the fuzzer's generators so every instance has an
    [hmn_cli fuzz]-style repro — is mapped by the paper registry
    (HMN, R, RA, HS) and solved exactly. Per mapper the report gives
    the optimality gap

    {[ gap% = 100 * (objective - optimum) / optimum ]}

    (absolute when the optimum is ~0), plus the mean/max aggregate over
    the instances it mapped. The exact solver is warm-started with the
    heuristics' own mappings, which tightens pruning without affecting
    the proven bound. *)

type instance_run = {
  label : string;  (** class name, e.g. ["torus2x4/low"] *)
  seed : int;
  params : Hmn_validate.Fuzz.params;
  n_hosts : int;
  n_guests : int;
  solver : Hmn_exact.Solver.t;
  optimum : float option;  (** [None]: proven infeasible *)
  proven : bool;  (** solved to proven optimality within budget *)
  root_bound : float;
      (** the water-filling relaxation at the root — bound tightness is
          [root_bound / optimum] *)
  wall_s : float;  (** exact-solver wall time; never rendered in CI *)
  per_mapper : (string * float option) list;
      (** mapper name → objective; [None] when it declined *)
}

val classes : (string * Hmn_validate.Fuzz.params) list
(** The instance grid, smallest first: 2x2 torus / 8 guests (high),
    6-host switched / 12 guests (high), 2x4 torus / 20 guests (low),
    10-host switched / 30 guests (low). *)

val default_seed : int
val default_per_class : int  (** 5 — 20 instances over the 4 classes *)

val run :
  ?node_budget:int ->
  ?seed:int ->
  ?per_class:int ->
  unit ->
  instance_run list
(** Runs [per_class] seeded instances of every class; deterministic in
    [(seed, per_class, node_budget)]. Defaults: the solver's node
    budget, {!default_seed}, {!default_per_class}. *)

val gap_pct : optimum:float -> objective:float -> float
(** Non-negative relative gap in percent; falls back to the absolute
    objective when [optimum < 1e-9]. *)

val render_table : instance_run list -> string
(** Per-instance pretty table (hosts, guests, optimum, proven flag,
    per-mapper gap) followed by the per-mapper mean/max summary.
    Byte-deterministic — no wall times — safe to pin in CI. *)

val render_csv : instance_run list -> string
(** One line per (instance, mapper):
    [label,seed,hosts,guests,optimum,proven,nodes,mapper,objective,gap_pct]
    with empty fields where a value does not exist. *)

val render_timings : instance_run list -> string
(** Per instance: exact-solver search effort (nodes, leaves,
    certification runs, bound/admissibility/dead-end prunes), the root
    and final bounds, root-bound tightness [root_bound / optimum] ([-]
    without a positive optimum) and wall time. Print to stderr, never
    into diffed output. *)
