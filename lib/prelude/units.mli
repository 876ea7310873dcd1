(** Unit conventions and conversions.

    The whole project uses one canonical unit per quantity, matching the
    granularity of the paper's Table 1:

    - bandwidth: megabits per second (Mbps)
    - latency: milliseconds (ms)
    - memory: megabytes (MB)
    - storage: gigabytes (GB)
    - CPU: MIPS
    - wall time: seconds

    These helpers convert the paper's mixed units into canonical ones. *)

val mbps_of_kbps : float -> float
val mb_of_gb : float -> float
val gb_of_tb : float -> float
val seconds_of_ms : float -> float

val pp_bandwidth : Format.formatter -> float -> unit
(** Pretty-prints a bandwidth in Mbps, choosing kbps/Mbps/Gbps display. *)

val pp_memory : Format.formatter -> float -> unit
(** Pretty-prints a memory amount in MB, choosing MB/GB display. *)

val pp_storage : Format.formatter -> float -> unit
(** Pretty-prints a storage amount in GB, choosing GB/TB display. *)
