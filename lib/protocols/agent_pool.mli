(** A growable population of walk agents with O(1) spawn and kill, for the
    tweaked processes of Sections 5.2 and 6.2, whose agent set changes
    during the run.

    Each live agent has a position and an informed-round mark; dead slots
    are recycled through a free list, so a round over the population costs
    O(live agents + high-water mark). *)

type t

val uninformed : int
(** The informed-round mark of an agent that has not learned the rumor
    ([max_int]). *)

val create : capacity:int -> t

val spawn : t -> int -> int
(** [spawn p vertex] adds a live, uninformed agent at [vertex] and returns
    its slot. *)

val kill : t -> int -> unit
(** [kill p slot] removes the agent in [slot].  The slot may be reused by a
    later {!spawn}. *)

val alive : t -> int
(** Number of live agents. *)

val position : t -> int -> int
val set_position : t -> int -> int -> unit

val informed_at : t -> int -> int
(** The round the agent was informed, or {!uninformed}. *)

val set_informed_at : t -> int -> int -> unit

val iter_alive : t -> (int -> unit) -> unit
(** Iterate live slots in increasing slot order. *)

val find_alive_at : ?prefer_uninformed:bool -> t -> int -> int option
(** [find_alive_at p v] is some live slot whose agent stands on [v], if
    any; with [prefer_uninformed] (default true) an uninformed one is
    returned when available.  O(high-water mark). *)
