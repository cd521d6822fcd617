(** Least-squares fits used to check asymptotic shapes on finite-n sweeps.

    The experiment suite verifies claims like [T = Theta(n log n)] or
    [T = O(log n)] by fitting growth models to measured broadcast times over
    a geometric grid of [n] and inspecting the fitted exponent. *)

type fit = {
  slope : float;
  intercept : float;
  r2 : float;  (** coefficient of determination of the linear fit *)
}

val power_fit : float array -> float array -> fit
(** [power_fit ns ts] fits [t = C * n^e] by linear regression on log–log
    scale; [slope] is the empirical growth exponent [e].  Points with
    non-positive coordinates are rejected with [Invalid_argument]. *)

val log_fit : float array -> float array -> fit
(** [log_fit ns ts] fits [t = a * ln n + b]; [slope] is [a].  A process that
    is Theta(log n) has a stable positive [a] and a {!power_fit} exponent
    tending to 0. *)
