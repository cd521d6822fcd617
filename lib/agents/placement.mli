(** Initial placement of agents on a graph.

    The paper's default is the stationary distribution of the simple random
    walk — vertex [v] with probability [deg v / 2|E|] — which makes the
    per-round number of visits to every vertex exactly degree-fair from
    round zero.  The one-agent-per-vertex variant is the alternative under
    which the paper notes its regular-graph results still hold. *)

type spec =
  | Stationary of int  (** [Stationary k]: k agents, i.i.d. degree-biased *)
  | One_per_vertex     (** exactly one agent starting on each vertex *)
  | All_at of int * int  (** [All_at (v, k)]: k agents all on vertex [v] *)
  | Linear of float
      (** [Linear alpha]: [max 1 (round (alpha * n))] agents, i.i.d.
          stationary — the paper's [|A| = alpha * n] convention *)

val count : spec -> Rumor_graph.Graph.t -> int
(** Number of agents the spec yields on the given graph.
    @raise Invalid_argument for [Linear alpha] unless
    [alpha * n < Sys.max_array_length] (so also for a NaN or infinite
    [alpha]). *)

val place : Rumor_prob.Rng.t -> spec -> Rumor_graph.Graph.t -> int array
(** [place rng spec g] materializes initial positions, one entry per
    agent.  A stationary agent ([Stationary], [Linear]) is the head of a
    uniformly random directed arc ({!Rumor_graph.Graph.arc_head}): one
    [Rumor_prob.Rng.int rng (2m)] and one slot read, drawn in agent order,
    O(1) per agent with no table to build.
    @raise Invalid_argument if the spec is empty or invalid for [g] (e.g.
    [All_at] with an out-of-range vertex, or a stationary spec on a graph
    with no edges, which has no stationary law). *)

val place_counts : Rumor_prob.Rng.t -> spec -> Rumor_graph.Graph.t -> int array
(** [place_counts rng spec g] is the per-vertex histogram of {!place} — the
    count-compressed placement used by the sparse walker kernels.  For the
    stationary specs it consumes the rng in exactly the same order as
    {!place}, so [place_counts rng spec g] equals the histogram of
    [place rng' spec g] when [rng] and [rng'] start from the same state.
    @raise Invalid_argument under the same conditions as {!place}. *)
