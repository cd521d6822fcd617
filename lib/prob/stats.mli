(** Summary statistics for replicated simulation measurements.

    {!t} is a streaming accumulator (Welford's algorithm, numerically stable)
    for the mean and standard deviation; {!summary} additionally computes order
    statistics from the full sample, which the experiment tables report. *)

type t
(** Streaming accumulator. *)

val create : unit -> t
val add : t -> float -> unit
val add_int : t -> int -> unit

val mean : t -> float
(** Mean of the values seen so far; [nan] if empty. *)

val stddev : t -> float
(** Unbiased sample standard deviation; [nan] if fewer than two values. *)

(** Whole-sample summary with order statistics. *)
type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  q25 : float;
  median : float;
  q75 : float;
  max : float;
}

val summarize : float array -> summary
(** [summarize xs] computes the summary of a non-empty sample.  Quantiles use
    linear interpolation between order statistics.  Sorting uses
    [Float.compare], so any NaNs order before every number (deterministic,
    unlike the unspecified polymorphic-compare ordering).
    @raise Invalid_argument on an empty sample. *)

val quantile : float array -> float -> float
(** [quantile sorted q] with [q] in [0,1] on an already-sorted array. *)
