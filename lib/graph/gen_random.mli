(** Random graph models.

    Random d-regular graphs with [d = Theta(log n)] are the primary testbed
    for the regular-graph theorems (Theorems 1, 23–25): they satisfy the
    degree hypothesis and have logarithmic broadcast time for all four
    protocols, so constant-factor relationships are visible directly.

    Every generator accepts [?trace] and forwards it to
    {!Graph.Builder.create}, so a traced build shows its edge-generation,
    CSR-fill and sort phases as spans; the G(n, p) path for [p < 1] and the
    sparse random-regular path, which build their CSR without the Builder,
    record the first two (see {!erdos_renyi} and {!random_regular}). *)

val erdos_renyi :
  ?trace:Rumor_obs.Trace.t -> Rumor_prob.Rng.t -> n:int -> p:float -> Graph.t
(** [erdos_renyi rng ~n ~p] samples G(n, p) using geometric edge skipping,
    O(n + m) expected time.  The result may be disconnected.

    For [0 < p < 1] it walks the n(n-1)/2 potential edges [(u, v)], [u < v],
    in row-major order: the linear index of the next present edge is the
    current one plus a Geometric(p) skip, [ceil (log u / log (1 - p))] for
    [u = 1 - Rng.float rng 1.0], at least 1.  One draw per edge plus the
    draw that ends the sweep.  The skips are drawn into a block of 1024
    absolute indices by a loop whose only calls are each draw's [log] and
    [ceil]; a second, call-free loop decodes each index into its
    [(row, column)] with a running row cursor and appends the column to its
    row in an int32 buffer (4 bytes an edge, off the OCaml heap), and
    {!Graph.of_upper_rows} turns the rows into the CSR.  The graph and the
    generator's state afterwards are those of feeding each edge to the
    {!Graph.Builder} as it is drawn; the tests keep that edge-by-edge
    sampler as a reference.  [p = 0] draws nothing, and [p = 1] is the
    complete graph through the Builder.  [?trace] records the draws and
    staging as ["graph.edge_gen"], the constructor as ["graph.csr_fill"],
    and the ["edges_built"] counter.

    At n = 10^4, p = 1.25 ln n / n (about 57.6 K edges; release build,
    2-vCPU VM, best of 40 draws) the build costs 23–24 ns an edge:
    ["graph.edge_gen"] 15–16 (the draws alone 11–12) and
    ["graph.csr_fill"] 8.5–9.  Drawing each skip and streaming its edge
    into the Builder cost 29–31.5: 22.5–25.5 and 7.5–8.5.
    @raise Invalid_argument if [n < 1], [p] is outside [[0, 1]], or
    [n > Graph.max_vertices] (before anything is sized by [n]). *)

val gnm : ?trace:Rumor_obs.Trace.t -> Rumor_prob.Rng.t -> n:int -> m:int -> Graph.t
(** [gnm rng ~n ~m] samples a uniform simple graph with exactly [m] edges
    (rejection on duplicates; requires [m] at most n(n-1)/2). *)

(* lint: allow R12 — its tests pin the pairing draw for draw against a reference *)
val random_regular :
  ?trace:Rumor_obs.Trace.t -> Rumor_prob.Rng.t -> n:int -> d:int -> Graph.t
(** [random_regular rng ~n ~d] samples a d-regular simple graph by the
    configuration (pairing) model: it pairs the [n*d] stubs uniformly at
    random, then repairs every loop and repeated edge of the pairing by
    random degree-preserving switches with healthy edges, at most
    [200 * (defects + 1) + 1000] switch proposals per pairing.  A pairing
    that exhausts that budget is discarded and a new one drawn.  The
    result is not exactly uniform over d-regular graphs, but is
    contiguity-equivalent for the structural properties measured here.
    For [2d > n] it samples the [(n-1-d)]-regular complement instead, and
    [d = n-1] is the complete graph.  Requires [n*d] even, [0 < d < n].
    Testing a pairing costs O(n d), and a switch proposal O(d): it scans
    one vertex's at most d healthy edges.

    The sparse path ([2d <= n]) builds no edge list: once repaired, every
    vertex holds its d neighbours, and one transpose (each vertex a, in
    ascending order, appended to its neighbours' slices) writes the CSR
    with every slice already sorted, which {!Graph.of_csr} checks in
    O(n d).  The graph is the CSR the {!Graph.Builder} would make of the
    same edges, from the same draws.  The pairing keeps its stubs and
    neighbour lists as 4-byte entries in bytes and shuffles the stubs
    by Fisher–Yates, one [Rng.int] per stub from the top.  A pair is
    defective iff it is a loop or repeats an earlier pair.  The test finds
    these in three linear passes rather than pair by pair: it groups each
    vertex's d stubs in index order, stamps each partner with the vertex
    to flag loops and repeats (a pair is a first occurrence at one end
    exactly when it is one at the other), and lists the flagged pairs in
    index order.  That flags the same pairs, and leaves the same healthy
    lists in the same order, as testing each pair against the healthy
    edges before it, so the repair makes the same draws.  A connected
    500-vertex 12-regular draw, as in Theorem 1's experiments, costs
    149–160 µs, median 155 (release build, 2-vCPU VM, best of 9 × 1000
    draws in each of 6 processes, alternating; 196–206 µs, median 200, on
    the same host with the pair-by-pair test, a masked scan of all d
    slots, and a top-down connectivity check).  [?trace] records
    the pairing and repair as ["graph.edge_gen"] and the transpose with
    its check as ["graph.csr_fill"], plus the ["edges_built"] counter; the
    complement and complete paths go through the Builder and record its
    spans.
    @raise Invalid_argument if [n > Graph.max_vertices], or if the sparse
    path would need [n d > 2^32] stubs (its 4-byte entries hold stub
    indices), before anything is sized by [n d].
    @raise Failure if 101 pairings in a row exhaust their switch budget. *)

val random_regular_connected :
  ?trace:Rumor_obs.Trace.t -> Rumor_prob.Rng.t -> n:int -> d:int -> Graph.t
(** Like {!random_regular} but additionally resamples until the graph is
    connected (a.a.s. immediate for [d >= 3]). *)

val preferential_attachment :
  ?trace:Rumor_obs.Trace.t -> Rumor_prob.Rng.t -> n:int -> m:int -> Graph.t
(** [preferential_attachment rng ~n ~m] grows a Barabási–Albert graph: it
    starts from a clique on [m + 1] vertices and attaches each new vertex
    to [m] distinct existing vertices chosen with probability proportional
    to their current degree.  The result is connected with a power-law
    degree tail — the social-network model family on which push-pull beats
    push ([12], [17] in the paper's related work).
    Requires [1 <= m < n]. *)
