(** Welford's online mean/variance — used by the experiment runner to
    aggregate repetitions without retaining every sample. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int

val mean : t -> float
(** Raises [Invalid_argument] before the first sample. *)

val stddev : t -> float
(** Population standard deviation; [0.] with a single sample. Raises
    before the first sample. *)

val min : t -> float
val max : t -> float
