(* Pearson chi-square goodness-of-fit gates with a computed p-value, shared
   by the sampler tests (test_rng.ml, test_dist.ml, test_placement.ml).

   [p_value ~df x] is P(X >= x) for X ~ chi^2(df), the regularized upper
   incomplete gamma Q(df/2, x/2) (series below a + 1, Lentz's continued
   fraction above; Numerical Recipes 6.2).  A gate that rejects when the
   p-value is below [a] has false-alarm rate [a] up to the chi-square
   approximation of Pearson's statistic, which is good when every expected
   count is at least 5 or so; the callers keep expected counts in the
   hundreds. *)

(* ln Gamma(x), x > 0: Stirling's series to the x^-7 term, after shifting
   the argument to at least 10 with ln Gamma(x) = ln Gamma(x+1) - ln x;
   the truncation error there is below 1e-15 *)
let rec log_gamma x =
  if x < 10.0 then log_gamma (x +. 1.0) -. log x
  else
    let r = 1.0 /. (x *. x) in
    ((x -. 0.5) *. log x) -. x
    +. (0.5 *. log (2.0 *. Float.pi))
    +. (1.0 /. x
       *. ((1.0 /. 12.0) -. (r *. ((1.0 /. 360.0) -. (r *. ((1.0 /. 1260.0) -. (r /. 1680.0)))))))

(* regularized upper incomplete gamma Q(a, x) *)
let gamma_q a x =
  if x <= 0.0 then 1.0
  else
    let front = exp ((a *. log x) -. x -. log_gamma a) in
    if x < a +. 1.0 then begin
      (* P(a, x) by its series, Q = 1 - P *)
      let term = ref (1.0 /. a) and sum = ref (1.0 /. a) and ap = ref a in
      while Float.abs !term > Float.abs !sum *. 1e-15 do
        ap := !ap +. 1.0;
        term := !term *. x /. !ap;
        sum := !sum +. !term
      done;
      1.0 -. (front *. !sum)
    end
    else begin
      let tiny = 1e-300 in
      let b = ref (x +. 1.0 -. a) in
      let c = ref (1.0 /. tiny) in
      let d = ref (1.0 /. !b) in
      let h = ref !d in
      let i = ref 1 in
      let converged = ref false in
      while not !converged do
        let an = -.float_of_int !i *. (float_of_int !i -. a) in
        b := !b +. 2.0;
        d := (an *. !d) +. !b;
        if Float.abs !d < tiny then d := tiny;
        c := !b +. (an /. !c);
        if Float.abs !c < tiny then c := tiny;
        d := 1.0 /. !d;
        let delta = !d *. !c in
        h := !h *. delta;
        incr i;
        if Float.abs (delta -. 1.0) < 1e-15 || !i > 10_000 then converged := true
      done;
      front *. !h
    end

let p_value ~df x = gamma_q (float_of_int df /. 2.0) (x /. 2.0)

(* Pearson's statistic of observed counts against expected counts *)
let statistic observed expected =
  let s = ref 0.0 in
  Array.iteri
    (fun i o ->
      let d = float_of_int o -. expected.(i) in
      s := !s +. (d *. d /. expected.(i)))
    observed;
  !s

(* [p_value] of [observed] against [expected], on one degree of freedom
   fewer than there are cells *)
let test observed expected =
  p_value ~df:(Array.length observed - 1) (statistic observed expected)
