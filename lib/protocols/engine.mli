(** The synchronous round kernels: push, push–pull, visit-exchange,
    meet-exchange and their combination (Section 3 of the paper).

    Every kernel works over flat state: informed sets live in {!Bitset}s
    (1 bit per vertex/agent), the push frontier and walker positions are
    dense [int array]s over the CSR graph, and curves grow in
    {!Curve_buf}s — per-run memory is O(n + m + rounds run) words and a run
    at n = 10^7 is a few GB dominated by the graph itself.

    Rounds are counted as in the paper: round 0 is the initial state
    (source informed, agents placed) and every kernel fires the
    {!Rumor_obs.Instrument} round hooks once per simulated round
    [1 .. rounds_run], plus one [on_contact] per communication that its
    [contacts] counter counts.

    {2 Determinism}

    Every kernel runs on the caller's domain and draws every random choice
    from the caller's [rng] in one fixed order (frontier order for push,
    vertex order for push–pull, agent order for walker steps), so the whole
    {!Run_result} — curves, contact counts, optional [tau] array, and the
    [?obs] stream — is a pure function of the seed.  The golden digests in
    the test suite pin that order.  Parallelism lives one level up, across
    independent replications ([Rumor_sim.Replicate]).

    {2 Tracing}

    [?trace] records, on the caller's track, one span per round
    (["<kernel>.round"], [arg] = round number) with walk/spread child spans
    for the walker kernels (plus push_pull for combined; push and
    push–pull rounds have none), an ["informed"] counter
    series sampled at round boundaries, and scalar [rounds]/[contacts]
    counters plus a contacts-per-round histogram in the
    tracer's registry.  Tracing never consumes randomness, so traced and
    untraced runs on the same seed produce bit-identical {!Run_result}s;
    with [?trace] absent the kernels execute the untraced instruction
    stream — no clock reads, no allocation (pinned by an allocation test).

    All kernels raise [Invalid_argument] on an out-of-range [source] or a
    negative [max_rounds].  Their loops draw unchecked
    ({!Rumor_graph.Graph.unsafe_random_neighbor}), so each checks once per
    run, before its first contact, that no vertex it will call from is
    isolated, and raises [Graph.random_neighbor]'s own
    ["Graph.random_neighbor: isolated vertex"] otherwise: push checks the
    source, push–pull and combined every vertex (a run that makes no
    contact — one vertex, or [max_rounds = 0] — is not refused); the
    walker kernels refuse an agent placed on an isolated vertex.  Per-edge {!Traffic} rides on [?obs]:
    {!Traffic.calls} for push and push–pull, {!Traffic.steps} for dense
    walkers.

    {2 Sparse walkers}

    The walker kernels ({!visit_exchange}, {!meet_exchange}) take
    [?walkers], a {!Sparse_walkers.mode}.  [Dense] (the default) keeps the
    per-agent position array and every guarantee above.  [Sparse] switches
    to {!Sparse_walkers}' count-compressed representation — per-vertex
    (uninformed, informed) counts swept in CSR order — which removes every
    O(k) per-agent structure and unlocks VE/ME at n = 10^7.  Sparse runs
    are a pure function of the seed but {e not} bit-identical to dense
    (agent identity is erased; experiment A10 gates the distributional
    agreement), and report the aggregate [on_occupancy] hook instead of
    per-agent [on_contact]/[on_walker_move] events (so {!Traffic.steps}
    records nothing on them).  [Auto] picks sparse when the placement yields at
    least {!Sparse_walkers.auto_threshold} agents. *)

val push :
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?tau:int array ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  max_rounds:int ->
  unit ->
  Run_result.t
(** The push protocol (Demers et al.).  Round 0 informs the source; in
    every round [t >= 1] each vertex informed in a previous round samples a
    uniformly random neighbor and sends it the rumor.  Broadcast completes
    when all vertices are informed.  Work per round is O(informed
    vertices), so a run costs O(sum of the informed curve).

    A non-source vertex of degree 1 is dead once informed (its only
    neighbour informed it), so it stays out of the frontier: each of its
    calls still consumes its one generator output, in frontier order, and
    still counts as a contact and fires [on_contact] with its neighbour,
    but costs no neighbour lookup.  On a star or double star most of the
    frontier is such leaves.

    [?tau], when given, must have length [n] and is filled with each
    vertex's informing round [tau_u] ([max_int] if never informed) — the
    quantity the Section 5 coupling argument reasons about.
    @raise Invalid_argument also if [tau] has the wrong length. *)

val push_pull :
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  max_rounds:int ->
  unit ->
  Run_result.t
(** The push–pull protocol (Karp et al.).  In every round [t >= 1],
    {e every} vertex — informed or not — samples a uniformly random
    neighbor, and if exactly one endpoint of the resulting contact was
    informed before round [t], the other endpoint becomes informed.  Each
    vertex's call counts as one contact (n contacts per round). *)

val visit_exchange :
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?tau:int array ->
  ?lazy_walk:bool ->
  ?walkers:Sparse_walkers.mode ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  agents:Rumor_agents.Placement.spec ->
  max_rounds:int ->
  unit ->
  Run_result.t
(** The visit-exchange protocol.  A set of agents, placed by [agents],
    performs independent simple random walks.  Round 0 informs the source
    vertex and every agent standing on it.  In each round [t >= 1] all
    agents take one step in parallel; then

    - an agent informed in a {e previous} round informs the vertex it now
      stands on, and
    - an uninformed agent standing on a vertex that is informed (in a
      previous round, or in the current round by some informed agent)
      becomes informed.

    Broadcast completes when all vertices are informed (the broadcast time
    is the round the last vertex was informed); the round at which all
    {e agents} are informed is reported as [all_agents_informed] (Theorem
    23 needs it), and the run continues until both hold.  Contacts count
    one per agent–vertex information transfer, in either direction.
    [?lazy_walk] (default [false]) makes every walk stay put with
    probability 1/2 each round.  [?tau] is filled with each vertex's
    informing round [t_u], exactly as on {!push}, for either walker
    representation. *)

val meet_exchange :
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?tau:int array ->
  ?lazy_walk:bool ->
  ?walkers:Sparse_walkers.mode ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  agents:Rumor_agents.Placement.spec ->
  max_rounds:int ->
  unit ->
  Run_result.t
(** The meet-exchange protocol.  Only agents store information.  Round 0
    informs every agent standing on the source; if there is none, the
    {e first} agents to visit the source later become informed (all of
    them, if several arrive simultaneously), after which the source stops
    informing.  In each round, whenever two agents meet on a vertex and
    exactly one of them was informed in a previous round, the other
    becomes informed.  Broadcast completes when all {e agents} are
    informed, and the informed curve counts agents.  Contacts count one per
    agent→agent transfer plus one per source→agent transfer; with dense
    walkers, [?obs] sees a round's transfers as [on_contact v a] (vertex,
    then the agent it informs) in (vertex, agent) order.

    On bipartite graphs the non-lazy process can fail to complete (walks in
    opposite parity classes never meet), where the paper requires lazy
    walks for an a.s.-finite broadcast time.  An omitted [?lazy_walk]
    therefore resolves automatically: lazy iff
    {!Rumor_graph.Algo.is_bipartite} holds (the [Lazy_auto] convention of
    [Rumor_sim.Protocol]).  Pass [~lazy_walk:false] explicitly to opt back
    into the non-lazy process, e.g. to exhibit the parity trap.

    [?tau] is indexed by the parties the curve counts — here agents, in
    placement order — and must have one entry per placed agent
    ({!Rumor_agents.Placement.count}); it is filled with each agent's
    informing round ([max_int] if never informed).  Sparse walkers erase
    agent identity, so [?tau] with sparse walkers raises
    [Invalid_argument]. *)

val combined :
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?lazy_walk:bool ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  agents:Rumor_agents.Placement.spec ->
  max_rounds:int ->
  unit ->
  Run_result.t
(** Push–pull and visit-exchange run side by side on a shared informed
    set.  The paper's introduction observes that "agent-based information
    dissemination, separately or in combination with push-pull, can
    significantly improve the broadcast time": each mechanism covers the
    other's bad cases (push–pull is slow on the double star,
    visit-exchange on the heavy binary tree).  Each round executes one
    push–pull round (all n calls, against the informed-before-this-round
    state) and then one visit-exchange round, and a vertex is informed as
    soon as either informs it; agents learn from vertices as in
    {!visit_exchange}.  Experiment E10 checks that the combination is
    logarithmic on both families.  Same conventions as {!visit_exchange}
    ([?lazy_walk] defaults to [false]); the informed curve counts
    vertices.  Dense walkers only — the sparse representation has no
    combined kernel. *)
