(** Discrete-event simulation of an emulation experiment over a mapped
    virtual environment. See {!App} for the application model.

    The input mapping must be complete and valid (every guest placed,
    every inter-host virtual link routed); run
    [Hmn_validate.Validator.check] first when in doubt. Because valid
    mappings reserve each link's bandwidth end-to-end (Eq. 9), network
    transfers proceed at the virtual link's requested rate; what varies
    across mappings is CPU contention, path latency, and how many
    messages are intra-host — exactly the quantities the objective
    function is meant to proxy. *)

type result = {
  makespan_s : float;  (** emulated experiment duration *)
  events : int;  (** simulator events processed *)
  max_host_slowdown : float;
      (** worst ratio of requested to delivered CPU over hosts (1.0 =
          no host oversubscribed) *)
  intra_host_messages : int;
  inter_host_messages : int;
}

val run : ?app:App.t -> Hmn_mapping.Mapping.t -> result
(** Raises [Invalid_argument] when a guest is unplaced or an inter-host
    virtual link is unrouted. *)
