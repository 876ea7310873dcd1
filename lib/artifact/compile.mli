(** The artifact compiler: realize a finished mapping as deployable
    emulation-testbed configuration.

    From a complete mapping (every guest placed, every virtual link
    routed) it emits, under the grammar of {!Spec}:

    - a {e VM launch plan}: one launch entry per guest — id, name,
      memory/storage reservation, CPU share (MIPS), attachment
      interface and host bridge — grouped by host, hosts ascending,
      guests ascending within a host;
    - a {e network plan}: one OVS-style bridge per node (ports for the
      incident physical links, plus the guest vifs on hosts) and, per
      physical link that carries routed virtual links, an HTB + netem
      shaping profile: one class per virtual link at
      [rate = the link's reserved bandwidth] and a netem stage at
      [delay = the physical link's latency], class minors assigned by
      {!Spec.minor_of_rank};
    - a {e manifest} tying the artifacts to the problem instance via
      {!Hmn_io.Codec} (full problem for a whole-mapping export, the
      tenant's virtual environment for an online per-tenant delta),
      with the grammar's [schema_version] and the bandwidth-ledger
      tolerance the checker must grant.

    Everything is derived from the mapping alone, in deterministic
    order — two compilations of the same mapping are byte-identical,
    regardless of how many domains computed it. *)

type bundle = {
  format : Spec.format;
  files : (string * string) list;
      (** [(name, content)], manifest first; the names are
          {!Spec.manifest_file}, {!Spec.vms_file}, {!Spec.net_file} *)
}

val bytes : bundle -> int
(** Total content size over the files. *)

val of_mapping :
  ?vmm:Hmn_testbed.Vmm.t -> format:Spec.format -> Hmn_mapping.Mapping.t -> bundle
(** Compile a whole mapping. The manifest embeds the full problem
    ([Hmn_io.Codec.problem_to_json]'s text, written straight from the
    problem by [Hmn_io.Codec.problem_to_text]). [vmm] (default
    {!Hmn_testbed.Vmm.xen_like}) is recorded per host and in the
    manifest — the cluster's capacities are already net of it.
    Raises [Invalid_argument] when a guest is unplaced or a virtual
    link unrouted (compile only validated mappings). *)

val of_tenant :
  ?vmm:Hmn_testbed.Vmm.t ->
  format:Spec.format ->
  cluster:Hmn_testbed.Cluster.t ->
  venv:Hmn_vnet.Virtual_env.t ->
  id:int ->
  hosts:int array ->
  paths:Hmn_routing.Path.t array ->
  unit ->
  bundle
(** Compile one admitted tenant's artifact {e delta} against the shared
    cluster: only this tenant's launches and qdisc classes. The
    manifest embeds the tenant's virtual environment
    ([Hmn_io.Codec.venv_to_text]) and its id; guest and vlink ids are
    tenant-local. *)

val write : dir:string -> bundle -> unit
(** Write every file of the bundle under [dir] (created, with parents,
    when missing). *)
