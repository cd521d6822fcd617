(** Per-round observation hooks for protocol runs.

    Every protocol in [lib/protocols/] accepts an optional [?obs] argument of
    type {!t} and reports its progress through these four hooks instead of
    (only) its private curve arrays.  Passing no instrument costs one [match]
    on an option per hook site; the protocols' return values are unchanged.

    Round numbering follows the paper and {!Rumor_protocols.Run_result}:
    round 0 is the initial state and is {e not} announced through
    [on_round_start]/[on_round_end]; the hooks fire once per simulated round
    [1 .. rounds_run].  The continuous-time protocols ([Async_push],
    [Async_meet_exchange]) have no rounds and only fire [on_contact] /
    [on_walker_move]. *)

type t = {
  on_round_start : int -> unit;  (** [on_round_start round] before the round *)
  on_round_end : round:int -> informed:int -> contacts:int -> unit;
      (** after the round: the protocol's informed-party count and its
          cumulative contact count so far *)
  on_contact : int -> int -> unit;
      (** [on_contact u v]: a pairwise communication from party [u] to party
          [v].  For vertex protocols these are vertices; for agent-based
          protocols the endpoints are vertices (source/vertex hand-offs) or
          agent indices (agent–agent exchanges), mirroring what the
          protocol's [contacts] counter counts. *)
  on_walker_move : agent:int -> from_:int -> to_:int -> unit;
      (** one walker step; lazy stays report [from_ = to_] *)
  on_occupancy : round:int -> occupied:int -> walkers:int -> unit;
      (** aggregate walker occupancy after a round's walk phase: [occupied]
          vertices currently hold at least one of the [walkers] agents.
          Fired by the count-compressed (sparse) walker kernels, which erase
          agent identity and therefore cannot fire [on_contact] or
          [on_walker_move] per agent; dense kernels do not fire it. *)
}

val make :
  ?on_round_start:(int -> unit) ->
  ?on_round_end:(round:int -> informed:int -> contacts:int -> unit) ->
  ?on_contact:(int -> int -> unit) ->
  ?on_walker_move:(agent:int -> from_:int -> to_:int -> unit) ->
  ?on_occupancy:(round:int -> occupied:int -> walkers:int -> unit) ->
  unit ->
  t
(** Build an instrument; omitted hooks default to no-ops. *)

(* lint: allow R12 — tests attach a recorder and a traffic counter to one run *)
val pair : t -> t -> t
(** [pair a b] calls [a]'s hook then [b]'s at every site. *)

(** {1 Option-threading helpers}

    Protocols receive [t option] and call these; they compile to a single
    option match when no instrument is attached. *)

val round_start : t option -> int -> unit
val round_end : t option -> round:int -> informed:int -> contacts:int -> unit
val contact : t option -> int -> int -> unit
val walker_move : t option -> agent:int -> from_:int -> to_:int -> unit
val occupancy : t option -> round:int -> occupied:int -> walkers:int -> unit

(** {1 Recording instrument}

    An instrument that accumulates everything it sees, for tests and for
    capturing per-round curves without touching protocol internals. *)
module Recorder : sig
  type r

  (* lint: allow R12 — the test instrument *)
  val create : unit -> r

  (* lint: allow R12 — the test instrument *)
  val instrument : r -> t
  (** The hooks backed by this recorder. *)

  (* lint: allow R12 — the test instrument *)
  val rounds_started : r -> int
  (* lint: allow R12 — the test instrument *)
  val rounds_ended : r -> int
  (* lint: allow R12 — the test instrument *)
  val contacts : r -> int  (** number of [on_contact] firings *)

  (* lint: allow R12 — the test instrument *)
  val walker_moves : r -> int
  (* lint: allow R12 — the test instrument *)
  val occupancy_events : r -> int  (** number of [on_occupancy] firings *)

  (* lint: allow R12 — the test instrument *)
  val last_occupied : r -> int option
  (** [occupied] from the most recent occupancy event, if any. *)

  (* lint: allow R12 — the test instrument *)
  val curve : r -> int array
  (** Informed counts in [on_round_end] order (rounds [1 .. rounds_ended]). *)

  (* lint: allow R12 — the test instrument *)
  val last_informed : r -> int option
  (** Informed count of the most recent round end, if any. *)
end
