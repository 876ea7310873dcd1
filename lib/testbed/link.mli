(** A physical network link: bandwidth capacity and latency. *)

type t = {
  bandwidth_mbps : float;
  latency_ms : float;
}

val make : bandwidth_mbps:float -> latency_ms:float -> t
(** Raises [Invalid_argument] unless both values are finite, bandwidth
    is positive and latency non-negative. *)

val gigabit : t
(** The paper's physical link: 1 Gbps, 5 ms. *)

val pp : Format.formatter -> t -> unit
