(** A virtual link between two guests: required bandwidth [vbw] and a
    latency bound [vlat] (paper §3.2). The bound is an upper limit on
    the accumulated latency of the physical path the link is mapped
    to (Eq. 8). *)

type t = {
  bandwidth_mbps : float;  (** required bandwidth *)
  latency_ms : float;  (** maximum tolerated path latency *)
}

val make : bandwidth_mbps:float -> latency_ms:float -> t
(** Raises [Invalid_argument] unless both values are finite, bandwidth
    is positive and latency non-negative. *)

val pp : Format.formatter -> t -> unit
