(** Count-compressed random-walker state for the sparse engine kernels.

    Walkers are exchangeable up to informed-status, so per-vertex counts —
    uninformed and informed, packed two to a word so a deposit touches one
    cache line — are a sufficient statistic for visit-exchange and
    meet-exchange rounds.  A round becomes one CSR-ordered sweep over the
    {e occupied} vertices: each vertex's population is split among its
    [deg u] neighbor slots (plus the lazy self-slot) by the uniform-weight
    specialization of {!Rumor_prob.Dist.multinomial} (chained conditional
    binomials), writing into a double-buffered destination array.
    Per-round cost is
    O(occupied + Σ min(movers_u, deg u)) ≤ O(occupied + k) plus the
    occupied-list canonicalization, instead of O(k) random-access draws
    over a per-agent position array.

    {b Determinism contract.}  Runs are a pure function of the rng seed,
    but the stream is {e not} bit-identical to the dense per-agent kernels:
    agent identity is erased and draws happen per occupied vertex, not per
    agent.  Dense and sparse agree distributionally — experiment A10 gates
    the mean broadcast-time ratio.  Because agent identity is gone, the
    per-agent [on_contact]/[on_walker_move] hooks cannot fire; sparse
    kernels report the aggregate {!Rumor_obs.Instrument.t.on_occupancy}
    event instead. *)

module Graph = Rumor_graph.Graph
module Placement = Rumor_agents.Placement

(** Which walker representation an engine kernel uses.  [Auto] picks
    [Sparse] when the placement spec yields at least {!auto_threshold}
    agents. *)
type mode = Dense | Sparse | Auto

(* lint: allow R12 — the Auto boundary test reads it *)
val auto_threshold : int

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

val use_sparse : mode -> Placement.spec -> Graph.t -> bool
(** Resolve a mode against a concrete placement. *)

type t

val create :
  ?who:string ->
  lazy_walk:bool ->
  Rumor_prob.Rng.t ->
  Graph.t ->
  Placement.spec ->
  t
(** Place agents as per-vertex counts ({!Placement.place_counts} — same rng
    consumption as the dense placement) with every walker uninformed.
    @raise Invalid_argument if the spec yields no agents, yields 2^31 or
    more (the packed-count field width), or puts one on an isolated vertex
    (the check is skipped in O(1) when [Graph.min_degree g > 0]). *)

val agent_count : t -> int
val occupied_count : t -> int

val occupied_vertex : t -> int -> int
(** [occupied_vertex t i] for [0 <= i < occupied_count t]: the [i]-th
    occupied vertex in ascending order.  Unchecked. *)

(* lint: allow R12 — the walker conservation tests count with it *)
val uninformed_at : t -> int -> int
val informed_at : t -> int -> int

val inform_all_at : t -> int -> int
(** Convert every uninformed walker at [v] to informed; returns how many
    converted. *)

val step : Rumor_prob.Rng.t -> t -> unit
(** One synchronized walk round: scatter every occupied vertex's population,
    swap buffers, and re-canonicalize the occupied list to ascending
    order. *)
