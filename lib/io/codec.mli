(** JSON persistence for problem instances and mappings.

    Lets a tester save a generated environment, share it, and reload it
    for exact reproduction — the paper's "reuse a given emulated
    environment … reproduce tests" motivation. Decoders rebuild
    everything through the normal constructors (placements re-assign,
    link maps re-reserve), so a loaded mapping satisfies the same
    invariants as a computed one; a tampered file fails decoding or the
    [Hmn_validate.Validator] check rather than producing an
    inconsistent value.

    Node, guest and edge indices in the encoding follow the in-memory
    ids, which are stable for a given construction order.

    A decode error names where it happened, as a path from the root of
    the decoded document: [cluster.links[17]: missing field "latency_ms"]
    or [venv.guests[3].demand.mips: expected a number] from
    {!problem_of_json}, [mapping.paths[5]: ...] from {!bundle_of_json},
    whose paths start at [problem] or [mapping]. *)

val problem_to_json : Hmn_mapping.Problem.t -> Hmn_prelude.Json.t
val problem_of_json : Hmn_prelude.Json.t -> (Hmn_mapping.Problem.t, string) result

val venv_to_json : Hmn_vnet.Virtual_env.t -> Hmn_prelude.Json.t
(** The virtual environment alone — used by the artifact compiler to tie
    a per-tenant export to its request without the whole problem. *)

val venv_of_json :
  Hmn_prelude.Json.t -> (Hmn_vnet.Virtual_env.t, string) result

val problem_to_text :
  ?flush:(Buffer.t -> unit) -> level:int -> Buffer.t -> Hmn_mapping.Problem.t -> unit
(** [problem_to_text ~level buf p] appends exactly the bytes
    [Json.to_buffer ~pretty:true ~level buf (problem_to_json p)] would,
    written straight from [p] without building the tree: what the
    artifact compiler embeds in a manifest and the checker compares it
    with. [level] is the nesting depth the value sits at. The tree
    encoder stays the oracle (a property test holds the two equal).

    [flush] (default [ignore]) is called with [buf] after each element
    of every array. It may take the bytes written so far and clear
    [buf], so that a consumer reads the text as it is written without
    holding it whole, and it may raise to stop the writing. *)

val venv_to_text :
  ?flush:(Buffer.t -> unit) -> level:int -> Buffer.t -> Hmn_vnet.Virtual_env.t -> unit
(** {!venv_to_json}'s pretty text, as {!problem_to_text}. *)

val mapping_to_json : Hmn_mapping.Mapping.t -> Hmn_prelude.Json.t
(** Encodes the placement and the link paths; the problem must be
    stored alongside (see {!bundle_to_json}). *)

val mapping_of_json :
  problem:Hmn_mapping.Problem.t ->
  Hmn_prelude.Json.t ->
  (Hmn_mapping.Mapping.t, string) result

val bundle_to_json : Hmn_mapping.Mapping.t -> Hmn_prelude.Json.t
(** Problem + mapping in one document (field ["problem"] and
    ["mapping"]). *)

val bundle_of_json :
  Hmn_prelude.Json.t -> (Hmn_mapping.Mapping.t, string) result

val save_bundle : path:string -> Hmn_mapping.Mapping.t -> unit
(** Pretty-printed {!bundle_to_json} to a file. *)

val load_bundle : path:string -> (Hmn_mapping.Mapping.t, string) result
