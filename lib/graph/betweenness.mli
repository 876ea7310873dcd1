(** Edge betweenness centrality (Brandes 2001).

    The fraction of all-pairs shortest paths crossing each edge — the
    standard predictor of which physical links a topology will
    congest. Used by the mapping reports to flag structurally hot
    links (e.g. a cascade's inter-switch cables) independently of any
    particular workload. *)

val edges :
  ?weight:(int -> float) -> 'e Graph.t -> float array
(** [edges g] returns, indexed by edge id, the betweenness of every
    edge: the sum over ordered node pairs [(s, t)] of the fraction of
    shortest [s]–[t] paths using the edge. Unweighted (hop-count)
    shortest paths by default; [weight] supplies positive edge
    weights. Each unordered pair is counted twice (both orders), the
    usual convention. Raises
    [Invalid_argument] on non-positive weights. *)

val nodes : ?weight:(int -> float) -> 'e Graph.t -> float array
(** Node betweenness (excluding endpoints), same conventions. *)
