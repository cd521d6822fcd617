(** Analytics over informed-count curves.

    Broadcast time is the curve's completion round; these helpers extract
    the intermediate milestones (time to reach a fraction of the
    population) that examples and ablations report. *)

val time_to_fraction_curve : ?completed:bool -> int array -> float -> int option
(** [time_to_fraction_curve curve q] is the first round at which at least
    [q] of the final informed count is reached ([q] in (0, 1]); [None] for
    an empty curve or when the curve never reaches the fraction.
    [completed] (default true) says whether the run finished; on a capped
    run the final count is the curve's own maximum, so milestones are only
    meaningful relative to what was actually reached.
    @raise Invalid_argument if [q] is outside (0, 1]. *)

val half_time : Rumor_protocols.Run_result.t -> int option
(** The round at which half of [r]'s final informed count is reached. *)
