(** Compact immutable undirected graphs in CSR (compressed sparse row) form.

    Vertices are integers [0 .. n-1], with [n <= 2^31].  The adjacency of
    each vertex is stored sorted in one flat run of 4-byte neighbour slots
    (a [Bytes] on the OCaml heap, which the GC does not scan), indexed by an
    [int array] of [n+1] offsets; a graph holds [8(n+1) + 8m] bytes of
    payload (see {!csr_bytes}).  This gives O(1) degree queries,
    cache-friendly neighbor iteration, and O(log deg) edge membership — the
    access pattern the protocol simulators are built around.

    Graphs are simple (no self-loops, no parallel edges) and undirected;
    {!Builder} enforces this at construction time. *)

type t

(** {1 Construction} *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph on [n] vertices from an undirected
    edge list.  Duplicate edges (in either orientation) are rejected.
    @raise Invalid_argument on self-loops, out-of-range endpoints, or
    duplicates. *)

val of_edge_array : n:int -> (int * int) array -> t
(** Array variant of {!of_edges}.  Both go through {!Builder}.
    @raise Invalid_argument also if [n < 0] or [n > 2^31]. *)

(** Streaming construction, and the one place a CSR is assembled: endpoints
    accumulate in flat Bigarray buffers (2 unboxed words per edge, off the
    OCaml heap, growing by doubling) and {!Builder.finish} fills, sorts and
    duplicate-checks the 32-bit neighbour slots in place — the edge set is
    materialized exactly once.  Every generator feeds this path, and
    {!of_edges} feeds it too.

    Edges added as [(u, v)] pairs with [u < v], in ascending order of
    [(u, v)], fill every vertex's slice already sorted; [finish] then checks
    each slice in one scan and sorts nothing.  Any other order gives the
    same graph, at the cost of sorting the slices that arrive out of
    order. *)
module Builder : sig
  type graph := t
  type t

  val create : ?trace:Rumor_obs.Trace.t -> ?capacity:int -> n:int -> unit -> t
  (** [create ~n ()] starts a builder for a graph on [n] vertices.
      [capacity] pre-sizes the edge buffers (default 1024; they grow as
      needed, so it is only a hint).  [trace] records the build phases as
      spans: ["graph.edge_gen"] from [create] to {!finish} (covering the
      caller's generation loop), then ["graph.csr_fill"] and ["graph.sort"]
      inside {!finish}, plus an ["edges_built"] scalar counter.
      @raise Invalid_argument if [n < 0] or [n > 2^31] (vertex ids must fit
      in a signed 32-bit slot); nothing is allocated first. *)

  val add_edge : t -> int -> int -> unit
  (** Append one undirected edge.  Duplicates are detected at {!finish}.
      @raise Invalid_argument on out-of-range endpoints, self-loops, or a
      finished builder. *)

  val edge_count : t -> int
  val vertex_count : t -> int

  val finish : t -> graph
  (** Build the CSR graph and invalidate the builder (its edge buffers are
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
(** [random_neighbor g rng u] is a uniformly random neighbor of [u].
    @raise Invalid_argument if [u] is isolated. *)

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

val csr_bytes : t -> int
(** Payload bytes of the CSR arrays, headers excluded: one word per offset
    and 4 bytes per neighbour slot, [8(n+1) + 8m] on a 64-bit host.  This is
    what a simulation keeps resident for the graph. *)

(** {1 Degree statistics} *)

val min_degree : t -> int
(** Cached at construction; O(1). Agent-placement validation keys off this
    to skip its per-agent isolated-vertex scan on min-degree-positive
    graphs. *)

val max_degree : t -> int
val is_regular : t -> bool

val regular_degree : t -> int option
(** [Some d] if every vertex has degree [d]. *)

val total_degree : t -> int
(** Sum of degrees, [2 * num_edges]. *)

(** {1 Validation and display} *)

val validate : t -> unit
(** Re-checks all CSR invariants (sorted adjacency, symmetry, no loops);
    intended for tests. @raise Invalid_argument when violated. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: vertex count, edge count, degree range. *)
