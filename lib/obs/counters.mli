(** Named monotonic counters and fixed-bucket histograms.

    A registry is the scalar side of the tracing subsystem ({!Trace} is the
    time-series side): protocol engines bump counters (contacts, rounds,
    merges) and observe histograms (contacts per round, span durations)
    while a run executes, and the whole registry serializes into the trace
    file so [rumor_report trace] can print it next to the span profile.

    Counters and histograms are plain mutable cells with no locking — a
    registry belongs to one domain.  Worker domains that need their own
    tallies get their own registry (or their own {!Trace.t}, whose registry
    rides along) and the owner folds them together after the join, the same
    single-writer discipline the rest of the pipeline uses. *)

type t
(** A registry: an ordered collection of named counters and histograms. *)

type counter
type histogram

val create : unit -> t

(** {1 Counters} *)

val counter : t -> string -> counter
(** [counter t name] returns the counter registered under [name], creating
    it at zero on first request — callers may re-request by name instead of
    holding the handle. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** Monotonic bump.  @raise Invalid_argument on a negative amount. *)

(* lint: allow R12 — the trace-counter tests read counters back with it *)
val value : counter -> int

(** {1 Histograms} *)

val histogram : t -> string -> buckets:float array -> histogram
(** [histogram t name ~buckets] returns the histogram registered under
    [name], creating it on first request.  [buckets] lists the upper bounds
    of the finite buckets in strictly increasing order; an observation [x]
    lands in the first bucket with [x <= bound], or in the implicit overflow
    bucket after the last bound.
    @raise Invalid_argument on an empty or non-increasing bound array, or if
    [name] is already registered with different bounds. *)

val observe : histogram -> float -> unit

(* lint: allow R12 — the trace-counter tests read histograms back with it *)
val bucket_counts : histogram -> int array
(** Length [Array.length buckets + 1]; the last cell is the overflow
    bucket. *)

val merge_into : dst:t -> src:t -> unit
(** Fold [src] into [dst]: counter values add; histogram bucket counts add
    when the bounds match.  Used by [Trace.join] to fold a worker domain's
    registry back into its parent's after the domain is joined.
    @raise Invalid_argument if a histogram exists in both registries with
    different bounds. *)

(** {1 Export} *)

val is_empty : t -> bool
(** No counters and no histograms registered. *)

val to_json : t -> Json.t
(** {v
    { "counters":   { "contacts": 12345, ... },
      "histograms": { "contacts_per_round":
                        { "bounds": [1, 10, 100], "counts": [0, 3, 7, 1] },
                      ... } }
    v}
    Names are emitted sorted so the rendering is deterministic. *)

val of_json : Json.t -> (t, string) result
(** Rebuild a registry from {!to_json} output (used by the trace reader). *)
