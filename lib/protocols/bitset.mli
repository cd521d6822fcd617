(** Dense fixed-capacity bit set over [0, n) — the engine's informed-state
    representation (1 bit per vertex/agent; snapshotting is a [memcpy]).

    Bounds are {e not} checked on {!mem}/{!add}: callers index with ids
    already validated against the set's capacity. *)

type t

val create : int -> t
(** [create n] is an empty set over [0, n).
    @raise Invalid_argument if [n < 0]. *)

val mem : t -> int -> bool
val add : t -> int -> unit

val snapshot : src:t -> dst:t -> unit
(** Copy [src] into [dst]; both must have been created with the same [n]. *)
