(** Spectral analysis of the random walk on a graph: spectral gap,
    relaxation time, and conductance estimates.

    The paper's related work bounds rumor-spreading times by expansion
    quantities — conductance (Chierichetti–Giakkoupis–Lattanzi–Panconesi
    [11]: push-pull finishes in O(phi^-1 log n)) and vertex expansion [26].
    This module computes the quantities those bounds need:

    - the spectral gap of the {e lazy} transition matrix (lazy so the
      spectrum is nonnegative and bipartiteness is harmless), by power
      iteration with stationary deflation, exploiting CSR adjacency for
      O(m) per iteration;
    - conductance: exact by exhaustive search on tiny graphs, and the
      standard sweep-cut upper bound from the second eigenvector in
      general. *)

val spectral_gap : ?iterations:int -> Graph.t -> float
(** [spectral_gap g] is [1 - lambda_2] of the lazy walk matrix
    [(I + P) / 2], estimated by [iterations] (default 300) rounds of
    deflated power iteration.  In [0, 1]; larger means faster mixing.
    @raise Invalid_argument on a disconnected graph. *)

val conductance_sweep : ?iterations:int -> Graph.t -> float
(** Upper bound on the graph conductance: the best sweep cut of the second
    eigenvector.  Exact on graphs whose minimum cut is a sweep cut of the
    eigenvector (e.g. the double star, the necklace). *)

val conductance_exact : ?max_n:int -> Graph.t -> float
(** Exact conductance by exhaustive enumeration of all 2^(n-1) cuts; guarded
    by [max_n] (default 20). @raise Invalid_argument on larger graphs. *)
