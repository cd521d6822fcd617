(** Deterministic graph families: classic topologies used as substrates and
    baselines throughout the experiments.

    Conventions: generators return simple connected graphs; vertex 0 is
    always a natural "root" (star center, first path vertex, tree root), so
    examples can pick sources without extra lookups.

    Cost: each generator streams its [m] edges once into
    {!Graph.Builder}, in O(n + m) time with no per-edge allocation; at its
    peak a build holds the Builder's 16 bytes per edge beside the
    [8(n+1) + 8m]-byte CSR.  Every generator adds its edges in ascending
    order, so {!Graph.Builder.finish} sorts nothing.  The edge count is
    given with each generator. *)

val complete : int -> Graph.t
(** [complete n] is K_n, [n(n-1)/2] edges.
    @raise Invalid_argument if [n < 1]. *)

val path : int -> Graph.t
(** [path n] is the path on [n] vertices (0 — 1 — ... — n-1), [n - 1]
    edges. *)

val cycle : int -> Graph.t
(** [cycle n] is the n-cycle, [n] edges; requires [n >= 3]. *)

val star : leaves:int -> Graph.t
(** [star ~leaves] is the star S_leaves of Fig 1(a): vertex 0 is the center,
    vertices 1..leaves are leaves, [leaves] edges.  [leaves >= 1]. *)

val complete_binary_tree : levels:int -> Graph.t
(** [complete_binary_tree ~levels] has [2^levels - 1] vertices; vertex 0 is
    the root and vertex [i]'s children are [2i+1], [2i+2]; [n - 1] edges.
    [levels >= 1]. *)

val grid : rows:int -> cols:int -> Graph.t
(** [grid ~rows ~cols] is the rows×cols 4-neighbor grid,
    [rows(cols-1) + cols(rows-1)] edges. *)

val torus : rows:int -> cols:int -> Graph.t
(** [torus ~rows ~cols] is the grid with wrap-around edges; 4-regular when
    [rows >= 3] and [cols >= 3], [2n] edges. *)

val hypercube : dim:int -> Graph.t
(** [hypercube ~dim] is the dim-dimensional Boolean hypercube on [2^dim]
    vertices; [dim]-regular with degree logarithmic in n — the canonical
    sparse graph satisfying Theorem 1's [d = Omega(log n)] hypothesis;
    [n dim / 2] edges. *)

val necklace : cliques:int -> clique_size:int -> Graph.t
(** [necklace ~cliques ~clique_size] is a ring of [cliques] cliques K_s with
    one internal edge of each clique replaced by two "port" edges to the
    neighboring cliques.  The result is connected and (s-1)-regular with
    diameter Theta(cliques): a regular graph on which push and
    visit-exchange both take polynomial time (the "path of d-cliques"
    example after Theorem 1).  [cliques * s(s-1)/2] edges.  Requires
    [cliques >= 3], [clique_size >= 4]. *)

val barbell : clique_size:int -> bridge_len:int -> Graph.t
(** [barbell ~clique_size ~bridge_len] is two K_s joined by a path of
    [bridge_len] extra vertices; [s(s-1) + bridge_len + 1] edges. *)

val lollipop : clique_size:int -> tail_len:int -> Graph.t
(** [lollipop ~clique_size ~tail_len] is K_s with a path of [tail_len]
    vertices attached; [s(s-1)/2 + tail_len] edges. *)
