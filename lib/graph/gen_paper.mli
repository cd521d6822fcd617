(** The separator graph families of Figure 1 of the paper.

    Each generator also returns the landmark vertices the paper's lemmas
    refer to (star centers, tree root, leaf ranges), so experiments can pick
    the exact source vertices the proofs assume.

    Cost: each generator streams its [m] edges once into
    {!Graph.Builder} in ascending order, so {!Graph.Builder.finish} sorts
    nothing: O(n + m) time, no per-edge allocation, and at its peak the
    Builder's 16 bytes per edge beside the [8(n+1) + 8m]-byte CSR.  The
    heavy trees are dense: their leaf cliques make [m] quadratic in [n].
    Release build, 2-vCPU VM: 0.9 ms for the 9-level heavy tree (33 150
    edges), 41 ms for the 11-level Siamese tree (1.05 M edges). *)

(** Fig 1(b): two stars whose centers are joined by an edge.  push-pull needs
    Omega(n) expected rounds to cross the center–center edge; the agent-based
    protocols cross it in O(log n) (Lemma 3). *)
type double_star = {
  ds_graph : Graph.t;
  ds_center_a : int;
  ds_center_b : int;
  ds_leaf_a : int;  (** a representative leaf of star [a] *)
}

val double_star : leaves_per_star:int -> double_star
(** [double_star ~leaves_per_star] has [2 * (leaves_per_star + 1)] vertices
    and [2 * leaves_per_star + 1] edges. *)

(** Fig 1(c): balanced binary tree whose leaves are joined into a clique
    ("heavy" because almost all volume sits on the leaf clique).  push is
    O(log n); visit-exchange needs Omega(n) because no agent finds the root
    (Lemma 4). *)
type heavy_tree = {
  ht_graph : Graph.t;
  ht_root : int;
  ht_first_leaf : int;  (** leaves are [ht_first_leaf .. Graph.n - 1] *)
  ht_leaf_count : int;
}

val heavy_binary_tree : levels:int -> heavy_tree
(** [heavy_binary_tree ~levels] has [n = 2^levels - 1] vertices of which
    [L = 2^(levels-1)] are clique leaves, and [n - 1 + L(L-1)/2] edges
    (about [n^2 / 8]).  [levels >= 2]. *)

(** Fig 1(d): two heavy binary trees sharing their root.  Both agent-based
    protocols need Omega(n) (Lemma 8); push remains O(log n). *)
type siamese = {
  si_graph : Graph.t;
  si_root : int;
  si_leaf_left : int;   (** a leaf of the left tree *)
  si_leaf_right : int;  (** a leaf of the right tree *)
}

val siamese_heavy_tree : levels:int -> siamese
(** [siamese_heavy_tree ~levels] has [2(2^levels - 1) - 1] vertices and twice
    the edges of [heavy_binary_tree ~levels].  [levels >= 2]. *)

(** Fig 1(e): a cycle of [k] stars, each leaf carrying a K_{k+1} clique,
    [k = n^(1/3)].  Nearly regular; visit-exchange beats meet-exchange by a
    Theta(log n) factor (Lemma 9). *)
type csc = {
  csc_graph : Graph.t;
  csc_k : int;
  csc_ring : int array;        (** the cycle vertices c_i *)
  csc_a_clique_vertex : int;   (** a vertex inside clique Q_{0,0} *)
}

val cycle_stars_cliques : k:int -> csc
(** [cycle_stars_cliques ~k] has [k + k^2 + k^3] vertices and
    [k + k^2 + k^3 + k^3(k-1)/2] edges (about [n^(4/3) / 2]).  [k >= 3]. *)
