(** Admission control: can this request be mapped onto what is left of
    the cluster, and with which heuristic?

    Any registered mapper ({!Hmn_core.Registry}) is an admission policy:
    the arriving environment is mapped against the {e residual} cluster
    (full capacities minus current occupancy), so a mapper that solves
    the paper's offline problem needs no changes to serve online.

    This module also owns the service side of the rejection-cause
    classification — {!explain} turns a failed stage plus its
    structured {!Hmn_core.Mapper.failure_detail} into the journal's
    closed {!Hmn_obs.Journal.cause} taxonomy, judged against the fresh
    residual cluster. [Hmn_validate.Decision] re-derives the same
    semantics independently so the two can be cross-checked. *)

type verdict =
  | Admitted of {
      mapping : Hmn_mapping.Mapping.t;
          (** onto the residual cluster; node and edge ids are the
              shared cluster's (residual clusters preserve ids) *)
      elapsed_s : float;
          (** the mapper's wall-clock seconds (observability only —
              never part of the deterministic summary) *)
      tries : int;  (** attempts the (possibly retrying) mapper used *)
    }
  | Rejected of {
      stage : string;
      reason : string;
      elapsed_s : float;
      tries : int;  (** 0 when the screen rejected *)
      detail : Hmn_core.Mapper.failure_detail option;
    }

val try_admit :
  ?residual:Hmn_testbed.Cluster.t ->
  occupancy:Occupancy.t ->
  policy:Hmn_core.Mapper.t ->
  venv:Hmn_vnet.Virtual_env.t ->
  rng:Hmn_rng.Rng.t ->
  unit ->
  verdict
(** Screens with {!Hmn_mapping.Problem.obviously_infeasible} (stage
    ["screen"]), then runs the policy. [residual] (else computed from
    [occupancy]) lets the caller reuse one residual cluster for
    admission, candidate counting, and explanation. *)

val work : venv:Hmn_vnet.Virtual_env.t -> tries:int -> int
(** Deterministic admission effort for one [try_admit] call:
    [1 + tries * (n_guests + 2 * n_vlinks)] — proportional to the
    placement and routing work the attempt drove, independent of the
    machine running it. The flight recorder's pinnable latency proxy. *)

val candidate_hosts :
  residual:Hmn_testbed.Cluster.t -> venv:Hmn_vnet.Virtual_env.t -> int
(** Hosts whose residual memory and storage both fit the request's most
    memory-demanding guest (ties: storage, then lower index) — the
    journal's [candidates] field. *)

type explanation = {
  cause : Hmn_obs.Journal.cause;
  binding : string;  (** human-readable binding constraint *)
  detail : Hmn_obs.Journal.detail;
}

val explain :
  residual:Hmn_testbed.Cluster.t ->
  venv:Hmn_vnet.Virtual_env.t ->
  stage:string ->
  reason:string ->
  detail:Hmn_core.Mapper.failure_detail option ->
  explanation
(** Classifies a rejection. Stage ["screen"] re-derives the screen
    cause; a hosting-family failure attributes the binding resource for
    the named guest (or the hardest-to-place guest when unnamed); a
    networking-family failure ([networking]/[dfs-routing]) splits
    bandwidth vs latency by Dijkstra over bandwidth-feasible edges of
    the fresh residual. *)

val find_policy : string -> (Hmn_core.Mapper.t, string) result
(** Case-insensitive registry lookup; the error lists valid names. *)
