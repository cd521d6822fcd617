(** The asynchronous kernels: continuous-time push and push–pull (the
    {!Async_push} model) and continuous-time meet-exchange
    ({!Async_meet_exchange}), with no event queue.

    - {b One clock per run}: the m i.i.d. rate-1 Poisson clocks of the
      model superpose to one Poisson clock of rate m whose every ring
      belongs to a uniformly random one of the m.  A ring advances time by
      Exp(1)/m and then draws the ringer: async push runs at rate |I| and
      draws from an append-only array of the informed vertices, push–pull
      runs at rate n, meet-exchange at rate k (the agent count).  The gaps
      come from a clock generator split off [rng] up front — the
      clock-stream contract documented in {!Async_push}.
    - {b State}: push keeps its informed set as a {!Bitset}.
      Meet-exchange keeps one position per agent and one int per vertex
      (agent count and informed bit): after every ring each occupied vertex
      holds only informed or only uninformed agents, so an agent's class
      is its vertex's bit and a meeting is an O(1) test on the arrival
      vertex.  Only with [?obs] attached does it also keep per-vertex agent
      lists (two more ints per agent), to order the contact stream.

    Consequently a run — broadcast time, ring count, integer-mark curve,
    and the full [?obs] contact/walker-move stream — is a pure function of
    the seed; golden digests in the test suite pin it.  A run that is
    complete at time 0 (one vertex under push, or every agent informed on
    placement) reports [broadcast_time = Some 0.0] without drawing a
    ringer.  The model has no rounds, so [?obs] fires no round hooks.

    [?trace] records one ["async_engine.<kernel>.loop"] span, ["informed"]
    counter samples every 1024 rings, and a final ["rings"] registry
    total; it never consumes randomness. *)

val push :
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  variant:Async_push.variant ->
  source:int ->
  max_time:float ->
  Async_push.result
(** [push rng g ~variant ~source ~max_time] simulates until all vertices
    are informed or continuous time exceeds [max_time].  [?obs] receives
    one [on_contact] per clock ring.
    @raise Invalid_argument on a bad source or non-positive [max_time],
    and, on more than one vertex, before any ring, if a caller may be
    isolated: the source for async push, any vertex for async push-pull
    (["Graph.random_neighbor: isolated vertex"]). *)

val meet_exchange :
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?lazy_walk:bool ->
  ?walkers:Sparse_walkers.mode ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  agents:Rumor_agents.Placement.spec ->
  max_time:float ->
  Async_meet_exchange.result
(** [meet_exchange rng g ~source ~agents ~max_time] simulates until every
    agent is informed or continuous time exceeds [max_time].  An omitted
    [lazy_walk] resolves to the graph's bipartiteness (see
    {!Async_meet_exchange}).  [?obs] receives [on_walker_move] (one per
    ring) and [on_contact] (one per newly informed agent).

    [?walkers] selects nothing: every mode runs the one kernel, which
    draws the ringing agent by id, and gives the same result and [?obs]
    stream.  Its state is one int per agent plus O(n) (three ints per
    agent with [?obs]); there is no O(n)-whatever-k mode.
    @raise Invalid_argument on a bad source, a non-positive [max_time],
    more than 2^30 agents (the ringer draw's bound) or an agent placed on
    an isolated vertex (checked up front, in O(1) when the graph's minimum
    degree is positive). *)
