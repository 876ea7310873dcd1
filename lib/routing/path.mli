(** A path in the physical cluster: the sequence [P_j] of Eqs. (4)–(7).

    A path stores its node sequence and the edge ids joining consecutive
    nodes. The one-node path (empty edge list) represents an intra-host
    virtual link, which the paper treats as having infinite bandwidth
    and zero latency. *)

type t = private {
  nodes : int array;  (** [src ... dst], length >= 1 *)
  edges : int array;  (** physical edge ids, length = |nodes| - 1 *)
}

val make : nodes:int list -> edges:int list -> t
(** Raises [Invalid_argument] when lengths are inconsistent or the node
    list is empty. Structural validity against a cluster is checked
    separately by {!validate}. *)

val trivial : int -> t
(** The one-node (intra-host) path. *)

val src : t -> int
val dst : t -> int
val hop_count : t -> int
val is_intra_host : t -> bool

val iter_edges : t -> (int -> unit) -> unit

val total_latency : Hmn_testbed.Cluster.t -> t -> float
(** Sum of physical-link latencies along the path (0 for intra-host). *)

val bottleneck : capacity:(int -> float) -> t -> float
(** Minimum of [capacity] over the path's edges; [infinity] for the
    intra-host path (the paper's [bw((ci, ci)) = ∞]). *)

val validate :
  Hmn_testbed.Cluster.t -> src:int -> dst:int -> t -> (unit, string) result
(** Checks Eqs. (4)–(7): starts at [src], ends at [dst], consecutive
    nodes joined by the stated edges, and no repeated node (loop-free,
    which subsumes the paper's no-repeated-link condition). *)

val pp : Format.formatter -> t -> unit
