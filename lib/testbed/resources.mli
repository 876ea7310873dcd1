(** Resource vectors: CPU (MIPS), memory (MB), storage (GB).

    Used both for host capacities and guest demands. Arithmetic is
    component-wise. The paper treats memory and storage as hard
    constraints and CPU as the quantity to balance; that asymmetry is
    expressed by {!fits_mem_stor} versus {!le}. *)

type t = {
  mips : float;
  mem_mb : float;
  stor_gb : float;
}

val make : mips:float -> mem_mb:float -> stor_gb:float -> t
(** Raises [Invalid_argument] if any component is negative or
    non-finite. *)

val zero : t

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] may produce negative components (residual CPU is allowed
    to go negative). *)

val scale : float -> t -> t
val sum : t list -> t

val fits_mem_stor : demand:t -> avail:t -> bool
(** The paper's feasibility test (Eqs. 2–3): memory and storage of the
    demand fit in the availability; CPU is ignored. *)

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
