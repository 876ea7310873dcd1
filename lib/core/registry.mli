(** Name-indexed registry of every available mapping heuristic — the
    "pool of heuristics that might be selected according to the
    emulated scenario" the paper's conclusion calls for. *)

val all : ?max_tries:int -> unit -> Mapper.t list
(** HMN, R, RA, HS, HN (no-migration ablation), FFD, BFD, WFD, CONS.
    [max_tries] configures the retrying baselines. *)

val paper : ?max_tries:int -> unit -> Mapper.t list
(** Exactly the four heuristics of Tables 2–3: HMN, R, RA, HS. *)

val find : ?max_tries:int -> string -> Mapper.t option
(** Case-insensitive lookup by table name. *)

val names : unit -> string list
