(** Mutable guest → host assignment with per-host residual resources.

    Feasibility is the paper's: a guest fits when its memory and
    storage fit the host's residual (Eqs. 2–3); CPU is deducted too but
    never gates an assignment — residual CPU may go negative and is
    what the objective balances. *)

type t

val create : Problem.t -> t
(** Empty placement; every host at full capacity. *)

val problem : t -> Problem.t
val copy : t -> t

val host_of : t -> guest:int -> int option

val is_assigned : t -> guest:int -> bool

val n_assigned : t -> int
val all_assigned : t -> bool

val fits : t -> guest:int -> host:int -> bool
(** Memory/storage feasibility of assigning the guest to the host now.
    [false] for non-host nodes (switches). *)

val assign : t -> guest:int -> host:int -> (unit, string) result
(** Fails when the guest is already assigned, the node cannot host, or
    it does not fit. *)

val unassign : t -> guest:int -> (unit, string) result

val migrate : t -> guest:int -> host:int -> (unit, string) result
(** Atomic unassign + assign; restores the original assignment when the
    target does not fit. *)

val residual : t -> host:int -> Hmn_testbed.Resources.t
(** Host capacity minus demands of the guests placed there. *)

val residual_cpu : t -> host:int -> float
(** The [rproc] of Eq. (11); may be negative. *)

val guests_on : t -> host:int -> int list
(** Ascending guest ids currently on the host. *)

val n_guests_on : t -> host:int -> int

val host_of_exn : t -> guest:int -> int
(** Raises [Invalid_argument] when unassigned. *)
