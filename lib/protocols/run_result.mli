(** Outcome of a single protocol run.

    Every protocol returns this record so experiments and examples can be
    written generically.  Rounds are counted as in the paper: round 0 is the
    initial state (source informed, agents placed), and the broadcast time
    is the first round at the end of which the protocol's completion
    condition holds. *)

type t = {
  broadcast_time : int option;
      (** first round at which every vertex (push / push-pull /
          visit-exchange) or every agent (meet-exchange) is informed;
          [None] if the run hit its round cap first *)
  rounds_run : int;
      (** number of rounds actually simulated (= broadcast time unless
          capped) *)
  informed_curve : int array;
      (** [informed_curve.(r)] is the number of informed parties after round
          [r], for [r = 0 .. rounds_run].  Parties are vertices, except for
          meet-exchange where they are agents. *)
  contacts : int;
      (** total number of pairwise communications: neighbor calls for the
          rumor-spreading protocols, agent–vertex or agent–agent
          information exchanges for the agent-based ones *)
  all_agents_informed : int option;
      (** for the agent-based protocols, the first round at which every
          agent is informed (what Theorem 23 calls [R_visitx]); [None] for
          agent-free protocols or capped runs *)
}

(* lint: allow R12 — tests assert completion with it *)
val completed : t -> bool
val time_exn : t -> int
(** Broadcast time; @raise Invalid_argument on a capped run. *)

val make :
  ?all_agents_informed:int option ->
  broadcast_time:int option ->
  rounds_run:int ->
  informed_curve:int array ->
  contacts:int ->
  unit ->
  t

val pp : Format.formatter -> t -> unit
