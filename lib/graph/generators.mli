(** Graph topology generators.

    All generators return unlabelled ([unit]) graphs; callers attach
    domain labels with {!Graph.map_labels}. Deterministic generators
    build the classic testbed topologies; randomized ones take an
    explicit {!Hmn_rng.Rng.t}. *)

val line : int -> unit Graph.t
(** Path graph on [n] nodes ([0—1—…—n-1]). [n >= 1]. *)

val ring : int -> unit Graph.t
(** Cycle on [n] nodes. [n >= 3]. *)

val star : int -> unit Graph.t
(** Node [0] joined to each of [1 .. n-1]. [n >= 1]. *)

val complete : int -> unit Graph.t
(** Clique on [n] nodes. [n >= 1]. *)

val torus2d : rows:int -> cols:int -> unit Graph.t
(** 2-D torus: node [(r, c)] is id [r * cols + c], joined to its four
    grid neighbours with wrap-around. Wrap edges are omitted along a
    dimension of size <= 2 so no parallel edges arise. [rows, cols >= 1]. *)

val random_tree : n:int -> rng:Hmn_rng.Rng.t -> unit Graph.t
(** Uniform random-attachment tree: node [i > 0] connects to a uniform
    earlier node. Always connected, [n - 1] edges. *)

val random_connected : n:int -> density:float -> rng:Hmn_rng.Rng.t -> unit Graph.t
(** Connected random graph with approximately
    [density * n * (n-1) / 2] edges (at least the [n - 1] of a spanning
    tree, at most the clique). This is the paper's virtual-topology
    generator: a random spanning tree over a shuffled node order
    guarantees connectivity, then distinct random extra edges are added
    up to the density target. Raises [Invalid_argument] unless
    [0. <= density <= 1.] and [n >= 1]. *)

val barabasi_albert : n:int -> m:int -> rng:Hmn_rng.Rng.t -> unit Graph.t
(** Preferential attachment (Barabási–Albert): each new node attaches
    to [m] distinct existing nodes with probability proportional to
    their degree (+1 smoothing). Connected by construction; models the
    heavy-tailed overlays P2P emulation experiments use. Requires
    [1 <= m < n]. *)

val waxman :
  n:int -> alpha:float -> beta:float -> rng:Hmn_rng.Rng.t -> unit Graph.t
(** Waxman (1988) random network: nodes get uniform coordinates in the
    unit square and each pair is joined with probability
    [alpha * exp (-d / (beta * sqrt 2))] where [d] is their Euclidean
    distance — the classic generator for internet-like emulated WANs.
    A random spanning tree is added first so the result is always
    connected. Requires [alpha, beta] in [(0, 1]]. *)

val expected_edges : n:int -> density:float -> int
(** The edge-count target {!random_connected} aims for. *)

(** {2 Data-center fabrics}

    The hierarchical topologies the scale path specialises for. Unlike
    the generators above they return a {!fabric} — the unit graph plus
    the host/rack/tier structure the testbed layer needs to attach
    per-tier link profiles and rack labels. *)

type tier =
  | Access  (** host → access (edge/leaf) switch *)
  | Aggregation  (** access → aggregation (or leaf → spine) *)
  | Core  (** aggregation → core *)

type fabric = {
  graph : unit Graph.t;
  n_hosts : int;  (** hosts are nodes [0 .. n_hosts - 1] *)
  n_racks : int;
  rack_of_host : int array;
      (** rack id per host; rack = the access switch the host hangs
          off, host ids contiguous per rack *)
  switch_names : string array;
      (** names for nodes [n_hosts ..], in node order *)
  edge_tiers : tier array;  (** tier per edge id *)
}

val fat_tree : k:int -> fabric
(** k-ary fat-tree (Al-Fares/Leiserson-style data-center fabric): [k]
    even, [k >= 2], [k^3/4] hosts. Each of the [k] pods has [k/2] edge
    and [k/2] aggregation switches; [(k/2)^2] core switches join the
    pods. One rack per edge switch ([k/2] hosts each). Node and edge
    insertion order is the historical [Topology.fat_tree] order, which
    keeps downstream tie-breaking stable. *)

val clos : spines:int -> leafs:int -> hosts_per_leaf:int -> fabric
(** Two-tier leaf-spine Clos: every leaf connects to every spine; one
    rack per leaf. [leafs * hosts_per_leaf] hosts. *)
