(** Replicated measurements with independent, reproducible random streams.

    The paper's statements are "in expectation" and "w.h.p."; their
    finite-sample analogue is the mean/median over independent replications.
    Each replication gets a generator split off a master seed, so a whole
    table is reproducible from one integer.

    Replications are embarrassingly parallel and the [?jobs] argument runs
    them on a {!Rumor_par.Pool} of that many domains.  The child generators
    are pre-split in rep order on the master ({!Rumor_prob.Rng.split_n})
    and every observable effect — [record]/[sink] calls, capped counting,
    the [`Fail] raise — happens in ascending rep order after the workers
    join, so any [jobs] value produces bit-identical results and identical
    sink streams. *)

(** A replicated broadcast-time measurement. *)
type measurement = {
  times : float array;
      (** per-replication broadcast times; under [`Keep] (the default) a
          capped run contributes its round cap — an under-estimate.  Check
          [capped] before trusting the summary, or pass [~on_capped:`Fail]
          to refuse silently biased measurements. *)
  capped : int;  (** number of replications that hit the round cap *)
  summary : Rumor_prob.Stats.summary;
}

exception Capped of { rep : int; rounds_run : int }
(** Raised by [~on_capped:`Fail] when replication [rep] ends without full
    broadcast after [rounds_run] rounds.  [rep] is the lowest-numbered
    capped replication regardless of [jobs]. *)

(* lint: allow R12 — tests drive the replication contract with hand-made runs *)
val measure :
  ?on_capped:[ `Keep | `Fail ] ->
  ?record:
    (rep:int ->
    result:Rumor_protocols.Run_result.t ->
    wall_seconds:float ->
    gc:Rumor_obs.Run_record.gc_counters ->
    unit) ->
  ?jobs:int ->
  ?trace:Rumor_obs.Trace.t ->
  seed:int ->
  reps:int ->
  (trace:Rumor_obs.Trace.t option ->
  rep:int ->
  Rumor_prob.Rng.t ->
  Rumor_protocols.Run_result.t) ->
  measurement
(** [measure ~seed ~reps f] calls [f ~rep] with [reps] independent
    generators, one per replication, on [jobs] domains (default [1] =
    sequential in the calling domain; [0] = all cores).

    [on_capped] decides what a run that hit its round cap does: [`Keep]
    (default) folds its [rounds_run] into [times] and counts it in
    [capped]; [`Fail] raises {!Capped} instead.  [record] is called once
    per replication in ascending rep order — capped or not, before the
    [`Fail] check — with the raw result plus wall-clock and GC-allocation
    cost of that run (both measured on the domain that ran it).

    [?trace] records each replication as a ["rep"] span (its [arg] is the
    rep index) on the track of the domain that ran it; [f] receives that
    domain's tracer so the work inside the rep can trace too, and [None]
    when tracing is off.  Tracing never touches the replication generators,
    so traced and untraced measurements are bit-identical.
    @raise Invalid_argument if [reps <= 0] or [jobs < 0]. *)

val broadcast_times :
  ?on_capped:[ `Keep | `Fail ] ->
  ?sink:Rumor_obs.Run_record.sink ->
  ?graph_name:string ->
  ?jobs:int ->
  ?trace:Rumor_obs.Trace.t ->
  ?walkers:Protocol.walkers ->
  seed:int ->
  reps:int ->
  graph:(Rumor_prob.Rng.t -> Rumor_graph.Graph.t * int) ->
  spec:Protocol.spec ->
  max_rounds:int ->
  unit ->
  measurement
(** Convenience wrapper: [graph rng] builds (or re-samples, for random
    models) the graph and source for each replication, then [spec] runs on
    it.  The same split generator drives graph sampling and the protocol, so
    replications are fully independent.

    [sink] receives one {!Rumor_obs.Run_record.t} per replication, labelled
    with [graph_name] (default ["custom"]) and [Protocol.name spec], always
    in ascending rep order: a JSONL sink written under [jobs > 1] is
    byte-identical to the sequential one up to the per-rep [wall_seconds]
    and [gc] timing fields.

    [?trace] threads through {!measure}'s per-rep spans and on into the
    graph build (a ["graph.build"] span per replication) and the protocol
    run ({!Protocol.run}'s span and the kernels' per-round
    instrumentation).

    [?walkers] is passed to {!Protocol.run}.  It selects the walker
    representation for the round engine's agent-based kernels, where
    [Sparse] (or [Auto] resolved to sparse) gives seed-deterministic
    records on a different sample path than the dense default. *)

val mean : measurement -> float
