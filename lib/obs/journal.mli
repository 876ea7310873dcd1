(** Admission-decision journal: a structured per-request event log with
    a closed rejection-cause taxonomy, serialized as deterministic
    JSONL.

    The journal itself is policy-free storage — the online service
    appends records stamped with {e simulated} time, and the validator
    independently re-derives each rejection cause from raw problem data
    (see [Hmn_validate.Decision]) and compares it against what was
    journaled. Two runs of the same seeded session produce byte-equal
    {!to_jsonl} output at any [HMN_JOBS].

    Cause taxonomy (closed — {!cause_label} enumerates every string
    that can appear in a record):
    - [Screened _]: rejected by the O(n) feasibility screen before any
      mapping attempt (aggregate memory, aggregate storage, or a
      disconnected cluster with virtual links present).
    - [Hosting r]: the hosting stage could not place some guest; [r] is
      the binding resource. Only memory and storage gate placement: in
      the paper's model CPU is the balancing objective, so it never
      appears here.
    - [Networking b]: every guest was placed but some virtual link
      could not be routed; [b] says whether bandwidth or the latency
      bound was binding (judged against the fresh residual cluster, so
      a link that is only unroutable because of the request's own
      earlier reservations classifies as [Bandwidth]). *)

type resource = Mem | Stor
type screen = Agg_mem | Agg_stor | Disconnected
type net = Latency | Bandwidth
type cause = Screened of screen | Hosting of resource | Networking of net

val cause_label : cause -> string
(** Stable wire string, e.g. ["hosting-mem"], ["networking-latency"]. *)

type detail =
  | No_detail
  | Guest of int  (** index of the unplaceable guest *)
  | Vlink of {
      vlink : int;
      src_host : int;
      dst_host : int;
      bandwidth_mbps : float;
      latency_ms : float;
    }  (** the unroutable virtual link, with its host endpoints *)

type decision =
  | Admit of { defrag_assisted : bool }
  | Reject of { cause : cause; binding : string; detail : detail }

type event =
  | Decision of {
      req_id : int;
      n_guests : int;
      n_vlinks : int;
      candidate_hosts : int;
          (** hosts whose residual memory and storage fit the request's
              most memory-demanding guest, counted before any
              reservation by this request *)
      work : int;
          (** deterministic admission effort:
              [1 + tries * (n_guests + 2 * n_vlinks)] summed over
              attempts — the pinnable latency proxy *)
      decision : decision;
    }
  | Departure of { tenant : int }
  | Defrag_move of { tenant : int }

type record = {
  seq : int;  (** dense, assigned by {!add} *)
  t_s : float;  (** simulated time *)
  tenants : int;  (** resident tenants after the event *)
  lbf : float;  (** occupied LBF after the event *)
  event : event;
}

type t

val create : unit -> t
val add : t -> t_s:float -> tenants:int -> lbf:float -> event -> unit
val length : t -> int
val records : t -> record list
(** Oldest first. *)

val record_to_json : record -> Hmn_prelude.Json.t
val to_jsonl : t -> string
(** One compact JSON object per line, oldest first, trailing newline
    when non-empty. Key order is fixed; floats print through the
    prelude's deterministic number formatter. *)
