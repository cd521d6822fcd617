(** Compact immutable undirected graphs in CSR (compressed sparse row) form.

    Vertices are integers [0 .. n-1], with [n <= 2^24].  The adjacency of
    each vertex is stored sorted in one flat run of 3-byte neighbour slots
    (a {!Slots.t}: bytes on the OCaml heap, which the GC does not scan),
    indexed by an [int array] of [n+1] offsets; a graph holds
    [8(n+1) + 6m + 1] bytes of payload (see {!csr_bytes}).  This gives O(1) degree queries,
    cache-friendly neighbor iteration, and O(log deg) edge membership — the
    access pattern the protocol simulators are built around.

    Graphs are simple (no self-loops, no parallel edges) and undirected;
    {!Builder}, {!of_csr} and {!of_upper_rows} enforce this at construction
    time. *)

type t

(** {1 Construction} *)

(** Neighbour-slot buffers, and the one place their format is known.  Slot
    [i] holds a vertex id in [[0, 2^24)] in bytes [3i .. 3i+2],
    little-endian on every host, and one pad byte ends the buffer: a
    buffer of [k] slots is [3k + 1] bytes, so any slot reads as one 4-byte
    load masked to 24 bits.  A write stores its 3 bytes only, never a
    neighbour's.  {!of_csr} takes a buffer filled here; the {!Builder}
    fills its own. *)
module Slots : sig
  type t

  val create : int -> t
  (** [create k] is a buffer of [k] slots, their contents unspecified.
      @raise Invalid_argument if [k < 0]. *)

  (* lint: allow R12 — the slot codec test reads slots back with it *)
  val get : t -> int -> int
  (** [get b i] reads slot [i].  @raise Invalid_argument unless [0 <= i < k]. *)

  val set : t -> int -> int -> unit
  (** [set b i v] writes [v] to slot [i], leaving every other slot as it was.
      @raise Invalid_argument unless [0 <= i < k] and [0 <= v < 2^24]. *)
end

val max_vertices : int
(** [2^24], the most vertices a graph may have: ids fill 24-bit slots.
    Every constructor refuses a larger [n] before sizing anything by it. *)

(* lint: allow R12 — tests build their small graphs with it *)
val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph on [n] vertices from an undirected
    edge list.  Duplicate edges (in either orientation) are rejected.
    @raise Invalid_argument on self-loops, out-of-range endpoints, or
    duplicates. *)

val of_csr : n:int -> offsets:int array -> slots:Slots.t -> t
(** [of_csr ~n ~offsets ~slots] wraps a CSR assembled by the caller, after
    checking every invariant the {!Builder} guarantees.  [slots] holds the
    neighbour ids, written with {!Slots.set}; vertex [u]'s neighbours fill
    slots [offsets.(u) .. offsets.(u+1) - 1], strictly increasing.  The
    graph takes both arrays over without copying: the caller must not write
    to them afterwards.

    The check is O(n + m), with no sort and no search: one pass over the
    offsets, one over the slots (range, self-loop, order), and a cursor
    walk for symmetry — with [u] ascending, the arcs into [v] arrive in
    increasing [u], so each must stand at [v]'s next unmatched slot.  A
    generator that writes each slice already sorted (the random-regular
    transpose, {!Gen_random.random_regular}) thus skips the Builder's
    hand-off, fill and slice passes.
    @raise Invalid_argument, with a message naming the defect, on:
    [n < 0] or [n > 2^24] (["vertex count out of range"]); an offsets
    array whose length is not [n + 1] (["offsets length is not n + 1"]);
    offsets that do not start at 0 and end at the slot count, or that
    decrease
    (["decreasing offsets"]); an id outside [0, n) (["out of range"]); a
    self-loop (["self-loop"]); a repeated neighbour (["duplicate edge"]); a
    slice out of order (["unsorted slice"]); an arc without its reverse
    (["has no reverse"]). *)

val of_upper_rows :
  n:int ->
  row_ends:int array ->
  cols:(int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  t
(** [of_upper_rows ~n ~row_ends ~cols] builds the graph whose edges are
    given row by row, each once, from its smaller end: row [u] is
    [cols.{row_ends.(u)} .. cols.{row_ends.(u+1) - 1}], the neighbours
    [v > u] of [u] in strictly ascending order.  [row_ends] has [n + 1]
    entries, rising from [0] to [Bigarray.Array1.dim cols].  The
    {!Gen_random.erdos_renyi} sampler stages its rows this way: 4 bytes an
    edge, against the {!Builder}'s 8.

    One pass counts each column's lower degree, a prefix sum adds the
    rows' lengths, and one fill pass over the rows in ascending [u]
    appends [v] to [u]'s slice and [u] to [v]'s.  A vertex's lower
    neighbours thus arrive in increasing order before its own row, so
    every slice comes out sorted; the fill checks [u < v < n] and strict
    ascent within each row, which makes every slice free of duplicates and
    loops, and symmetry holds by construction.  No sort and no check pass
    follow: the result is the CSR {!of_edges} makes of the same edges,
    with the same guarantees.  Neither array is kept.
    @raise Invalid_argument, with a message naming the defect, on: [n < 0]
    or [n > 2^24] (["vertex count out of range"]); a [row_ends] whose
    length is not [n + 1] (["row_ends length is not n + 1"]), that does
    not start at 0 and end at the column count (["row_ends do not run from
    0 to the column count"]), or that decreases (["decreasing
    row_ends"]); a column outside [[0, n)] (["outside"]); a column not
    above its row (["is not above its row"]); a column repeated within its
    row (["repeated column"]); a row out of order (["descends"]). *)

(** Streaming construction from edges in any order: endpoints
    accumulate interleaved in one flat int32 Bigarray ([u] then [v], 8 bytes
    an edge, off the OCaml heap, growing by doubling) and {!Builder.finish}
    counts degrees, fills the 24-bit neighbour slots, and sorts and
    duplicate-checks them in place — the edge set is materialized exactly
    once.  Every generator but two feeds this path, and {!of_edges} feeds
    it too: the sparse random-regular sampler writes its sorted slices
    itself and goes through {!of_csr}, and G(n, p) for [p < 1] stages its
    upper rows for {!of_upper_rows}.

    Edges added as [(u, v)] pairs with [u < v], in strictly ascending order
    of [(u, v)], fill every vertex's slice sorted and duplicate-free by
    construction; {!Builder.add_edge} notices such a stream at no extra
    branch, and [finish] then skips the slice scan altogether.  Every other
    order gives the same graph through the checked path: each slice is
    scanned, the slices that arrive out of order are sorted, and duplicates
    are rejected. *)
module Builder : sig
  type graph := t
  type t

  val create : ?trace:Rumor_obs.Trace.t -> ?capacity:int -> n:int -> unit -> t
  (** [create ~n ()] starts a builder for a graph on [n] vertices.
      [capacity] pre-sizes the edge buffer, in edges (default 1024; it grows
      as needed, so it is only a hint).  [trace] records the build phases as
      spans: ["graph.edge_gen"] from [create] to {!finish} (covering the
      caller's generation loop), then ["graph.csr_fill"] and ["graph.sort"]
      inside {!finish}, plus an ["edges_built"] scalar counter.
      ["graph.sort"] is empty for a strictly ascending [u < v] stream.
      @raise Invalid_argument if [n < 0] or [n > 2^24] (vertex ids must fit
      in a 24-bit slot); nothing is allocated first. *)

  val add_edge : t -> int -> int -> unit
  (** Append one undirected edge.  Duplicates are detected at {!finish}.
      Inlined into the caller's loop: one combined range/self-loop/finished
      test, an 8-byte store, and the ascending-stream check.
      @raise Invalid_argument on out-of-range endpoints, self-loops, or a
      finished builder. *)

  val finish : t -> graph
  (** Build the CSR graph and invalidate the builder (its edge buffer is
      released).  @raise Invalid_argument on duplicate edges or a second
      [finish]. *)
end

(** {1 Basic accessors} *)

val n : t -> int
(** Number of vertices. *)

val num_edges : t -> int
(** Number of undirected edges. *)

val degree : t -> int -> int

val neighbor : t -> int -> int -> int
(** [neighbor g u i] is the [i]-th neighbor of [u] in sorted order,
    [0 <= i < degree g u].  Bounds are checked only by the underlying slot
    access. *)

val random_neighbor : t -> Rumor_prob.Rng.t -> int -> int
(** [random_neighbor g rng u] is a uniformly random neighbor of [u]: one
    {!Rumor_prob.Rng.int} draw on [u]'s degree and one slot read.  It is
    {!unsafe_random_neighbor} behind its checks (the bounds-checked offset
    reads and the isolated case), inlined with no call on any path that
    returns: the isolated case raises directly.
    @raise Invalid_argument if [u] is out of range or isolated. *)

val unsafe_random_neighbor : t -> Rumor_prob.Rng.t -> int -> int
(** [unsafe_random_neighbor g rng u] is {!random_neighbor}[ g rng u] with no
    check: the same draw ({!Rumor_prob.Rng.below} on [u]'s degree, which
    consumes the generator exactly as [Rng.int] does), the same slot, the
    same generator state afterwards.  It reads the offsets and the slot
    unchecked.  The kernels call it in their contact and walk loops after
    checking once per run that no vertex the loop can reach is isolated.

    Precondition: [0 <= u < n g] and [degree g u >= 1].  Nothing checks it:
    an out-of-range [u] reads outside the offsets, and an isolated [u]
    reads the slot after its empty slice (past the buffer for the last
    vertex) and returns no neighbour of [u].  Degrees are below
    [max_vertices] = 2^24, so every degree is a valid [Rng.below] bound.
    Only [lib/prob], [lib/graph], [lib/protocols] and tests may call it
    (CI greps for it). *)

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] tests adjacency by binary search. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val iter_edges : t -> (int -> int -> unit) -> unit
(** [iter_edges g f] calls [f u v] once per undirected edge with [u < v]. *)

val edge_index : t -> int -> int -> int
(** [edge_index g u v] is a stable index in [0, 2*num_edges) identifying the
    directed arc [u -> v] (the position of [v] inside [u]'s adjacency slice,
    offset by [u]'s CSR offset).  Used by the fairness metrics to accumulate
    per-edge traffic in a flat array. @raise Not_found if not adjacent. *)

val arc_count : t -> int
(** [arc_count g = 2 * num_edges g]: size of the directed-arc index space. *)

val arc_head : t -> int -> int
(** [arc_head g i] is the head [v] of the directed arc [i] in
    [0, arc_count g): the inverse of {!edge_index} on its second vertex,
    one CSR slot read.  Every vertex [v] heads [degree g v] arcs, so the
    head of a uniformly random arc is a draw from the stationary law
    [deg v / 2m] of the simple random walk.  Bounds are checked only by
    the underlying slot access. *)

val first_arc : t -> int -> int
(** [first_arc g u] is the index of [u]'s first arc, for [0 <= u <= n]:
    [u]'s arcs are [first_arc g u .. first_arc g (u+1) - 1], in the sorted
    order of their heads, and [first_arc g n = arc_count g].  A loop over
    that range with {!arc_head} walks [u]'s neighbours with two offset
    reads a vertex and no closure. *)

val csr_bytes : t -> int
(** Payload bytes of the CSR arrays, headers excluded: one word per offset,
    3 bytes per neighbour slot and the slot buffer's pad byte,
    [8(n+1) + 6m + 1] on a 64-bit host.  This is what a simulation keeps
    resident for the graph. *)

(** {1 Degree statistics} *)

val min_degree : t -> int
(** Cached at construction; O(1). Agent-placement validation keys off this
    to skip its per-agent isolated-vertex scan on min-degree-positive
    graphs. *)

val regular_degree : t -> int option
(** [Some d] if every vertex has degree [d]. *)

val total_degree : t -> int
(** Sum of degrees, [2 * num_edges]. *)

(** {1 Validation and display} *)

(* lint: allow R12 — the CSR invariant check every generator test runs *)
val validate : t -> unit
(** Re-checks every CSR invariant {!of_csr} checks (sorted, duplicate-free
    and in-range slices, no loops, symmetry), in O(n + m), and the edge
    count; intended for tests.
    @raise Invalid_argument ("Graph.validate: ...") when violated. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: vertex count, edge count, degree range. *)
