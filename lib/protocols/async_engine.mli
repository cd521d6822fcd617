(** The asynchronous DES kernels: continuous-time push and push–pull
    (the {!Async_push} model) and continuous-time meet-exchange
    ({!Async_meet_exchange}), over a calendar-queue scheduler, flat state,
    and batched Poisson clocks.

    - {b Scheduler}: events live in {!Rumor_des.Calendar_queue}
      (amortized O(1) per ring) or {!Rumor_des.Event_queue} (O(log n)),
      selected by [?queue].  Both drain in ascending (time, insertion
      order), so the backend is unobservable in the results.
    - {b Clocks}: Exp(1) gaps are pre-drawn [batch] at a time
      ({!Rumor_des.Exp_stream}) from a clock generator split off [rng]
      up front — the clock-stream contract documented in {!Async_push}.
      The k-th scheduled gap is the clock stream's k-th sample whatever
      the batch, so results are batch-independent.
    - {b State}: informed sets are {!Bitset}s, the event loop pops
      through [pop_into] (no per-ring boxing), and meet-exchange keeps
      its per-vertex agent sets as intrusive int-array lists.

    Consequently a run — broadcast time, ring count, integer-mark curve,
    and the full [?obs] contact/walker-move stream — is a pure function of
    the seed for every [?queue] and [?batch]; golden digests in the test
    suite pin it.  The model has no rounds, so [?obs] fires no round
    hooks.

    [?trace] records one ["async_engine.<kernel>.loop"] span,
    ["queue"]/["informed"] counter samples every 1024 rings, and a final
    ["rings"] registry total; it never consumes randomness. *)

type queue =
  | Heap  (** {!Rumor_des.Event_queue}: no resize machinery, better
              constants on small/short-lived runs *)
  | Calendar  (** {!Rumor_des.Calendar_queue}: amortized O(1), the
                  default and the million-node choice *)

val default_batch : int
(** Clock pre-draw batch, 4096. *)

val push :
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?queue:queue ->
  ?batch:int ->
  ?stats:Rumor_des.Calendar_queue.stats option ref ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  variant:Async_push.variant ->
  source:int ->
  max_time:float ->
  Async_push.result
(** [push rng g ~variant ~source ~max_time] simulates until all vertices
    are informed or continuous time exceeds [max_time].  [?obs] receives
    one [on_contact] per clock ring.  [?stats] (when provided) receives
    the calendar queue's final geometry, or [None] under [?queue:Heap].
    @raise Invalid_argument on a bad source, non-positive [max_time] or
    [batch < 1]. *)

val meet_exchange :
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?lazy_walk:bool ->
  ?walkers:Sparse_walkers.mode ->
  ?queue:queue ->
  ?batch:int ->
  ?stats:Rumor_des.Calendar_queue.stats option ref ->
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

    [?walkers] ({!Sparse_walkers.Dense} by default) selects the walker
    representation.  Sparse mode compresses walkers into per-vertex
    (uninformed, informed) counts and replaces the per-agent event queue
    with one aggregate rate-k Poisson clock: each ring samples a vertex
    with probability proportional to its occupancy through a
    {!Rumor_prob.Fenwick} tree (O(log n), no queue at all), closing the
    n = 10^6 async gap.  Sparse runs are seed-deterministic but not
    bit-identical to dense, fire no per-agent [?obs] hooks, and always
    report [None] into [?stats]; [?queue]/[?batch] only affect the clock
    pre-draw.  [Auto] picks sparse at {!Sparse_walkers.auto_threshold}
    agents.
    @raise Invalid_argument on a bad source, non-positive [max_time] or
    [batch < 1]. *)
