(** Cross-validation of decompiled deployment artifacts against the
    mapping they were compiled from — the dry-run verifier of the
    artifact round trip.

    [Hmn_artifact.Compile] emits text; [Hmn_artifact.Decompile] re-parses
    that text with no shared in-memory state; this module then re-derives
    what the artifacts {e should} say from the mapping alone and compares:

    - every guest is launched exactly once, on the host the placement
      assigned, with memory/storage/CPU fields equal to its demand
      (the artifacts must reproduce the loads Eqs. 2–3 were checked
      against) and the grammar's interface/bridge names;
    - every guest vif and every shaped link's port is present on the
      right bridge;
    - per physical link: exactly one shaping class per routed virtual
      link, with the deterministic class minor, a rate equal to the
      link's reserved bandwidth (and their sum equal to the Networking
      reservation within the ledger tolerance), an HTB ceil equal to
      that same reserved rate (a ceil above it lets the class borrow
      past its reservation, breaking Eqs. 6–7; a shell class line
      without a ceil has tc's default, the rate, and the JSON grammar
      has no ceil, so there the ceil reads as the rate), and a netem
      delay equal to the physical link's latency — so each virtual
      link's latency along its route equals the sum of its netem
      stages;
    - the manifest's embedded problem (or tenant virtual environment)
      prints byte-identically to a fresh canonical serialization, and
      its schema version is the grammar's. The embedded bytes are
      compared with the canonical text ([Hmn_io.Codec.problem_to_text]);
      only when they differ are they parsed and compared as trees with
      [Hmn_prelude.Json.equal], so a re-indented manifest still passes
      and the verdict is the tree comparison's on every input.

    Numbers are compared {e exactly} where the emission grammar is
    lossless (it is — see [Hmn_prelude.Json.number_to_string]); only per-link rate {e sums}
    get the accounting tolerance, mirroring [Validator]'s residual
    policy. Never raises. One check costs O(guests + vlinks × hops +
    classes + ports) on flat arrays: the expected classes are a CSR
    from edge to routed vlinks, and ports are matched by the ids their
    names spell. *)

type violation =
  | Schema_mismatch of { expected : int; found : int }
  | Guest_missing of int  (** placed, never launched *)
  | Guest_duplicated of int  (** launched more than once *)
  | Unknown_guest of int  (** launched but not in the virtual env *)
  | Guest_misplaced of { guest : int; launched_on : int; mapped_to : int }
  | Guest_resources_mismatch of {
      guest : int;
      component : string;  (** ["mem_mb"] / ["stor_gb"] / ["mips"] *)
      artifact : float;
      demand : float;
    }
  | Iface_mismatch of { guest : int; field : string; found : string }
      (** wrong attachment interface or bridge name for the guest *)
  | Port_missing of { bridge : string; port : string }
  | Link_missing of int  (** a physical link carrying routed virtual
                             links has no shaping entry at all *)
  | Link_unknown of int  (** a shaping entry for a link that carries
                             nothing (or does not exist) *)
  | Link_meta_mismatch of {
      edge : int;
      field : string;  (** ["capacity_mbps"] / ["delay_ms"] *)
      artifact : float;
      expected : float;
    }
  | Class_missing of { edge : int; vlink : int }
  | Class_unknown of { edge : int; vlink : int }
  | Class_duplicated of { edge : int; vlink : int }
  | Class_id_mismatch of { edge : int; vlink : int; minor : int; expected : int }
  | Rate_mismatch of { edge : int; vlink : int; artifact : float; reserved : float }
  | Ceil_mismatch of { edge : int; vlink : int; artifact : float; reserved : float }
      (** the class's HTB ceil is not its reserved rate: a class could
          borrow past its reservation, which Eqs. 6–7 forbid *)
  | Rate_sum_mismatch of { edge : int; artifact : float; reserved : float }
      (** summed shaped rates off the Networking reservation by more
          than the ledger tolerance *)
  | Delay_mismatch of { edge : int; vlink : int; artifact : float; expected : float }
  | Route_delay_mismatch of { vlink : int; artifact : float; expected : float }
      (** end-to-end: the sum of the virtual link's netem stages is not
          the route's latency *)
  | Manifest_mismatch of string
      (** the embedded problem/venv is not byte-identical to a canonical
          re-serialization, or is missing *)

type report = {
  violations : violation list;  (** in discovery order; [[]] = faithful *)
  launches_checked : int;
  classes_checked : int;
}

val ok : report -> bool

(** What a bundle's manifest must embed. *)
type expected_manifest =
  | Embeds_problem of Hmn_mapping.Problem.t
      (** ["problem"], as [Hmn_io.Codec.problem_to_json] *)
  | Embeds_venv of Hmn_vnet.Virtual_env.t
      (** ["venv"], as [Hmn_io.Codec.venv_to_json] *)

val check_view :
  cluster:Hmn_testbed.Cluster.t ->
  venv:Hmn_vnet.Virtual_env.t ->
  host_of:(int -> int) ->
  path_of:(int -> Hmn_routing.Path.t) ->
  ?expect_manifest:expected_manifest ->
  Hmn_artifact.Decompile.t ->
  report
(** The core: compare a decompiled bundle against placement/routing
    functions over a cluster and virtual environment.
    [expect_manifest], when given, must match the bundle's embedded
    ["problem"] (full scope) or ["venv"] (tenant scope) byte-for-byte
    under canonical serialization. *)

val check : mapping:Hmn_mapping.Mapping.t -> Hmn_artifact.Decompile.t -> report
(** Whole-mapping bundles: derives the view from the mapping and expects
    the manifest to embed the mapping's problem ([Embeds_problem]). *)

val check_tenant :
  cluster:Hmn_testbed.Cluster.t ->
  venv:Hmn_vnet.Virtual_env.t ->
  hosts:int array ->
  paths:Hmn_routing.Path.t array ->
  Hmn_artifact.Decompile.t ->
  report
(** Per-tenant delta bundles (tenant-local ids); expects the manifest to
    embed the tenant's virtual environment ([Embeds_venv]). *)

val violation_label : violation -> string
(** Stable class key, e.g. ["rate-mismatch"] — what the corruption tests
    and the CLI's [--check] summary report. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit
