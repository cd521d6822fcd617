(** The pull protocol (Demers et al. [15]'s anti-entropy counterpart to
    push).

    In every round, each {e uninformed} vertex samples a uniformly random
    neighbor and learns the rumor if that neighbor was informed before the
    round.  Pull is the mirror image of push: it is extremely fast once
    most vertices are informed (each straggler succeeds with probability
    ~deg-fraction informed) but slow to get going — the reason push-pull
    combines both.  Included as a baseline for the push-pull comparisons. *)

val run :
  ?obs:Rumor_obs.Instrument.t ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  max_rounds:int ->
  unit ->
  Run_result.t
(** [run rng g ~source ~max_rounds ()].  Contacts count one per pull call
    (one per uninformed vertex per round). *)
