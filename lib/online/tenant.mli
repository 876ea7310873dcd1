(** One admitted virtual environment, frozen to the raw facts the
    service needs after admission: which host runs each guest and which
    physical path carries each virtual link.

    A tenant is immutable; defragmentation produces a {e new} tenant
    value (same id, venv, arrival and holding time — new hosts/paths)
    and swaps it into the occupancy. *)

type t = {
  id : int;  (** service-wide tenant id (the request id) *)
  venv : Hmn_vnet.Virtual_env.t;
  hosts : int array;  (** guest id → node id, length [n_guests venv] *)
  paths : Hmn_routing.Path.t array;
      (** vlink id → physical path (trivial for intra-host links) *)
  arrived_at : float;  (** simulated admission time, seconds *)
  holding_s : float;  (** simulated residency duration *)
}

val of_mapping :
  id:int -> arrived_at:float -> holding_s:float -> Hmn_mapping.Mapping.t -> t
(** Freezes a complete mapping (every guest placed, every link routed).
    Raises [Invalid_argument] on a negative id, a non-finite or negative
    holding time, or an unplaced guest. *)

val n_guests : t -> int
val n_vlinks : t -> int

val view : t -> Hmn_validate.Validator.tenant_view
(** The validator's read-only view of this tenant, for
    {!Hmn_validate.Validator.check_tenants}. *)
