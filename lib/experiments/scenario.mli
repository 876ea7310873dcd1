(** The evaluation scenarios of Tables 2–3: a guests-per-host ratio, a
    virtual-graph density, and the workload family; each is mapped on
    both physical clusters. *)

type workload_kind = High_level | Low_level

type cluster_kind = Torus | Switched

type t = {
  ratio : float;  (** guests per host, e.g. 2.5 *)
  density : float;  (** virtual-graph edge density, e.g. 0.015 *)
  workload : workload_kind;
}

val paper_scenarios : t list
(** The 16 rows of Table 2: high-level ratios {2.5, 5, 7.5, 10} ×
    densities {0.015, 0.02, 0.025}, then low-level ratios
    {20, 30, 40, 50} at density 0.01. *)

val n_guests : t -> int
(** [ratio * 40], rounded. *)

val workload_profile : workload_kind -> Hmn_vnet.Workload.profile
(** The Table 1 profile of a workload family. *)

val profile : t -> Hmn_vnet.Workload.profile

val label : t -> string
(** e.g. ["2.5:1 0.015"], matching the paper's row labels. *)

val cluster_label : cluster_kind -> string

val build_cluster :
  cluster_kind -> rng:Hmn_rng.Rng.t -> Hmn_testbed.Cluster.t

val build :
  t -> cluster_kind -> seed:int -> Hmn_mapping.Problem.t
(** Deterministic problem instance for (scenario, cluster, seed):
    generates the heterogeneous cluster and the virtual environment
    (with the feasibility calibration of {!Setup.fit_fraction}) from a
    seed-derived stream, so every heuristic sees the identical
    instance. *)
