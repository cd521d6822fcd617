(* One-sample Kolmogorov-Smirnov gates, shared by the exact-law tests of
   the round kernels (test_sync_oracle.ml) and of the superposed-clock
   kernels (test_async_engine.ml). *)

(* The gates reject when D exceeds sqrt(ln(2/a) / 2) / sqrt(m), m the
   sample size: the Dvoretzky-Kiefer-Wolfowitz bound with Massart's
   constant, P(D > eps) <= 2 exp(-2 m eps^2), so the false-alarm rate is at
   most [a] (exactly for a continuous law, conservatively for one with
   atoms). *)
let threshold ~alpha ~m = sqrt (log (2.0 /. alpha) /. 2.0) /. sqrt m

(* sup_t |F_emp(t) - cdf t| over the sorted sample.  Below a sample point
   the deviation is measured against the left limit [cdf_left x] = F(x-),
   which differs from [cdf x] only at an atom of the law. *)
let one_sample ?cdf_left xs cdf =
  let cdf_left = Option.value cdf_left ~default:cdf in
  let xs = Array.copy xs in
  Array.sort Float.compare xs;
  let m = float_of_int (Array.length xs) in
  let d = ref 0.0 in
  Array.iteri
    (fun i x ->
      let above = (float_of_int (i + 1) /. m) -. cdf x in
      let below = cdf_left x -. (float_of_int i /. m) in
      d := Float.max !d (Float.max above below))
    xs;
  !d
