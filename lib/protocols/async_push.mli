(** Asynchronous rumor spreading (the Section 2 variants): the model and
    its result type; {!Async_engine.push} runs it.

    In the asynchronous model every vertex acts at the arrival times of an
    independent unit-rate Poisson process: when its clock rings, the vertex
    samples a random neighbor and pushes (or, for push-pull, exchanges).
    Time is continuous; one unit of time corresponds to one expected ring
    per vertex, i.e. to one synchronous round's worth of activity.  Push
    only needs clocks on informed vertices, so a run costs O(total rings)
    time.

    The paper's related work (Sauerwald [41]; Giakkoupis–Nazari–Woelfel
    [27], Angel et al. [4]) shows asynchronous push has the same broadcast
    time as synchronous push on regular graphs, while asynchronous and
    synchronous push-pull can differ by a sqrt(log n) factor in general.
    Ablation A5 checks the regular-graph equivalence empirically, and
    experiment A9 the sync/async agreement at Theorem granularity.

    {2 Clock-stream contract}

    The RNG-consumption order both kernels of {!Async_engine} implement:
    the first operation on [rng] splits off a dedicated clock generator
    ({!Rumor_prob.Rng.split}); each ring draws one Exp(1) gap from that
    clock generator ({!Rumor_prob.Dist.exponential}, a ziggurat: one gap
    usually takes one output of the clock generator, but may take more)
    and divides it by the current total rate (|I| for push, n for
    push–pull, the agent count for meet-exchange), and every other draw
    (the ringer, neighbor picks, placement, walk steps) comes from [rng]
    itself in event order.  The clock generator feeds nothing else, so
    however many outputs a gap takes, the other draws are unchanged. *)

type variant = Async_push | Async_push_pull

type result = {
  broadcast_time : float option;
      (** continuous completion time; [None] if [max_time] elapsed first *)
  rings : int;  (** total clock rings processed *)
  informed : int;
  curve : int array;
      (** informed count sampled at integer times: entry [m] is the count
          after every event with time [<= m]; entry 0 is the initial
          count.  On completion the curve ends at mark [ceil t]; on a cap
          it ends at the last integer mark [<= max_time]. *)
}

val to_run_result : result -> Run_result.t
(** Project onto the synchronous result type: [broadcast_time] rounds up
    to an integer round count, [informed_curve] is the [curve] field,
    [rounds_run] is the curve length minus one, and [contacts] counts one
    contact per ring. *)
