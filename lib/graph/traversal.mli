(** Breadth-first traversal and connectivity. *)

val bfs_hops : 'e Graph.t -> src:int -> int array
(** Hop distance from [src] to every node; unreachable nodes get
    [max_int]. *)

val components : 'e Graph.t -> int array
(** [components g] labels every node with a component id in
    [0 .. k-1]; ids are assigned in order of lowest member node. *)

val n_components : 'e Graph.t -> int

val is_connected : 'e Graph.t -> bool
(** [true] when the graph has at most one component. The empty graph
    counts as connected. *)
