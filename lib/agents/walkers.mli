(** A population of synchronized independent random walks.

    One {!step} advances every agent by one round: each agent moves to a
    uniformly random neighbor of its current vertex (or, for lazy walks,
    first flips a fair coin to stay put — the variant the paper uses for
    meet-exchange on bipartite graphs).  Per-vertex occupancy counts are
    maintained incrementally, so protocols can ask "how many agents are on
    [v] right now" in O(1). *)

type t

val create :
  ?lazy_walk:bool -> Rumor_prob.Rng.t -> Rumor_graph.Graph.t -> int array -> t
(** [create rng g positions] takes ownership of the [positions] array (agent
    index → vertex).  [lazy_walk] defaults to [false].  The generator is
    retained and consumed by subsequent {!step}s. *)

val of_spec :
  ?lazy_walk:bool -> Rumor_prob.Rng.t -> Rumor_graph.Graph.t -> Placement.spec -> t
(** Convenience: {!Placement.place} then {!create}. *)

val graph : t -> Rumor_graph.Graph.t
val agent_count : t -> int
val is_lazy : t -> bool

val position : t -> int -> int
(** [position w a] is agent [a]'s current vertex. *)

val positions : t -> int array
(** The live positions array (not a copy); callers must not mutate it. *)

val occupancy : t -> int -> int
(** [occupancy w v] is the number of agents currently on [v]. *)

val round : t -> int
(** Number of steps taken so far (round 0 = initial placement). *)

val step : t -> unit
(** Advance every agent one round, in agent-index order. *)

val step_with : t -> (int -> int -> int -> unit) -> unit
(** [step_with w f] is {!step} but calls [f agent from to_] for every agent
    after its move (lazy stays report [from = to_]). *)
