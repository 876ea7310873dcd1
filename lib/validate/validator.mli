(** Independent re-derivation of every paper invariant a finished
    mapping must satisfy — the one validity oracle of the system.

    It rebuilds each invariant from the raw problem data and the
    physical graph alone — walking path node/edge sequences against
    [Graph.endpoints] rather than [Path.validate], summing demands
    rather than reading [Placement]'s residual arrays, recomputing the
    load-balance factor without [Objective] — so a bookkeeping bug in
    any of those layers is caught rather than inherited. It additionally
    cross-checks the {e stated} mutable state ([Link_map]'s [Residual],
    the mapping's reported objective) against the reconstruction, which
    is how incremental-accounting drift (remapping, live operations)
    becomes visible. {!check_view} and {!check_tenants} run the same
    passes, so one mapping gets the same verdict either way.

    Checked invariants, by paper equation:
    - every guest assigned, and only to host nodes (Eq. 1);
    - per-host memory and storage loads within capacity (Eqs. 2–3);
    - every inter-host virtual link routed by a path that runs from
      the host of the link's first guest to the host of its second, is
      connected edge-by-edge in the physical graph, and repeats no node
      (Eqs. 4–7);
    - accumulated path latency within the virtual link's bound (Eq. 8);
    - per-physical-edge bandwidth sums within capacity (Eq. 9), and
      consistent with the stated residual state within the documented
      tolerance;
    - the reported load-balance factor equal to an independent
      recomputation of Eq. 10.

    [check] never raises: every defect is a value in the report. *)

type violation =
  | Unassigned_guest of int
  | Guest_on_non_host of { guest : int; node : int }
  | Memory_exceeded of { host : int; used : float; capacity : float }
  | Storage_exceeded of { host : int; used : float; capacity : float }
  | Unmapped_vlink of int
  | Endpoint_mismatch of { vlink : int; reason : string }
      (** The path does not run from the host of the link's first guest
          to the host of its second (Eqs. 4–5). A reversed path is
          flagged, but its latency and bandwidth still count. *)
  | Disconnected_path of { vlink : int; reason : string }
      (** A stated edge does not join the consecutive nodes in the
          physical graph (Eq. 6), or ids are out of range. *)
  | Path_not_simple of { vlink : int; node : int }
      (** The path visits [node] twice (Eq. 7). *)
  | Latency_exceeded of { vlink : int; actual : float; bound : float }
  | Bandwidth_exceeded of { edge : int; used : float; capacity : float }
  | Residual_mismatch of { edge : int; stated : float; derived : float }
      (** The live [Residual] disagrees with capacity minus the sum of
          routed bandwidths by more than the accounting tolerance. *)
  | Objective_mismatch of { stated : float; derived : float }
      (** The reported load-balance factor is not the one Eq. 10 gives
          for this placement. *)
  | Cpu_accounting_mismatch of { host : int; stated : float; derived : float }
      (** Multi-tenant check only: the online service's stated residual
          CPU for a host disagrees with capacity minus the summed MIPS
          demand of every tenant guest placed there. *)

type report = {
  violations : violation list;  (** in discovery order; [[]] = valid *)
  guests_checked : int;
  vlinks_checked : int;
  edges_checked : int;
  derived_lbf : float option;
      (** The independently recomputed Eq. 10 value; [None] when some
          guest was unassigned (the LBF of a partial placement is not
          comparable). *)
}

(** A mapping reduced to the raw facts the validator consumes. The
    indirection exists so tests and the fuzzer can seed corrupted views
    (a placement function that overflows a host, a stated residual that
    drifted) without bypassing the library's safe constructors. *)
type view = {
  problem : Hmn_mapping.Problem.t;
  host_of : int -> int option;  (** guest id → node id *)
  path_of : int -> Hmn_routing.Path.t option;  (** vlink id → path *)
  residual_available : (int -> float) option;
      (** edge id → stated residual; [None] skips the cross-check *)
  stated_lbf : float option;  (** [None] skips the objective check *)
}

val view_of_mapping : Hmn_mapping.Mapping.t -> view

val residual_tolerance : Hmn_mapping.Problem.t -> float
(** Per-edge slack for {!Residual_mismatch}: [Residual.tolerance] times
    (number of virtual links + 1), since each reserve/release drifts by
    at most [Residual.tolerance] and an edge carries at most one
    operation per virtual link per direction of churn. *)

val check_path_structure :
  Hmn_testbed.Cluster.t -> vlink:int -> Hmn_routing.Path.t -> (unit, violation) result
(** The structural pass {!check_view} runs on every path: node ids in
    range ({!Disconnected_path} names the first out-of-range node), no
    node repeated ({!Path_not_simple} names the first node, in path
    order, that equals an earlier one), then each edge in range and
    joining its consecutive node pair. Returns the first defect. Reads
    the path alone, with no per-node table: O(hops) when a 32-bit mask
    of the nodes seen rules a repeat out, O(hops²) at worst. *)

val check_view : view -> report

val check : Hmn_mapping.Mapping.t -> report
(** [check_view (view_of_mapping m)]. Never raises. *)

val is_valid : Hmn_mapping.Mapping.t -> bool

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit

val violation_label : violation -> string
(** Short class name, e.g. ["residual-mismatch"] — stable keys for the
    fuzzer's summaries. *)

(** {2 Multi-tenant validation}

    The online testbed service ({!Hmn_online}) runs many virtual
    environments on one shared cluster. [check_tenants] is the oracle
    for that composed state: it re-derives every per-host and per-edge
    load by summing the raw demands of {e all} tenants' guests and
    routed links against the cluster's raw capacities — sharing no code
    or state with the service's own occupancy bookkeeping — and
    cross-checks the service's stated residual bandwidth and residual
    CPU when provided. *)

(** One tenant reduced to the raw facts the multi-tenant check consumes.
    Guest and vlink ids are tenant-local; node/edge ids are the shared
    cluster's. *)
type tenant_view = {
  venv : Hmn_vnet.Virtual_env.t;
  t_host_of : int -> int option;  (** tenant guest id → node id *)
  t_path_of : int -> Hmn_routing.Path.t option;  (** tenant vlink id → path *)
}

type multi_report = {
  per_tenant : (int * violation list) list;
      (** tenants with structural violations (unassigned guests, broken
          or latency-violating paths), tagged by tenant id; only
          offending tenants appear *)
  shared : violation list;
      (** aggregate violations of the shared cluster: summed memory /
          storage / bandwidth over capacity, and stated-state drift *)
  tenants_checked : int;
  m_guests_checked : int;
  m_vlinks_checked : int;
}

val check_tenants :
  ?stated_bw_available:(int -> float) ->
  ?stated_residual_cpu:(int -> float) ->
  cluster:Hmn_testbed.Cluster.t ->
  tenants:(int * tenant_view) list ->
  unit ->
  multi_report
(** [check_tenants ~cluster ~tenants ()] re-checks the composed
    multi-tenant state. [stated_bw_available] (edge id → Mbps) and
    [stated_residual_cpu] (host id → MIPS) additionally cross-check the
    service's live accounting against the reconstruction
    ({!Residual_mismatch} / {!Cpu_accounting_mismatch}). Never
    raises. *)

val multi_ok : multi_report -> bool

val pp_multi_report : Format.formatter -> multi_report -> unit
