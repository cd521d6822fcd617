(* Tests for Rumor_prob.Dist: samplers against closed-form moments. *)

module Rng = Rumor_prob.Rng
module Dist = Rumor_prob.Dist

let sample_mean_var n f =
  let stats = Rumor_prob.Stats.create () in
  for _ = 1 to n do
    Rumor_prob.Stats.add stats (f ())
  done;
  (Rumor_prob.Stats.mean stats, Rumor_prob.Stats.stddev stats ** 2.0)

let check_close label expected actual tolerance =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %.4f got %.4f (tol %.4f)" label expected actual
      tolerance

let test_binomial_moments () =
  let g = Rng.of_int 21 in
  List.iter
    (fun (n, p) ->
      let mean, var =
        sample_mean_var 40_000 (fun () -> float_of_int (Dist.binomial g n p))
      in
      let em = float_of_int n *. p in
      let ev = em *. (1.0 -. p) in
      check_close (Printf.sprintf "Bin(%d,%.2f) mean" n p) em mean (0.05 *. em +. 0.05);
      check_close (Printf.sprintf "Bin(%d,%.2f) var" n p) ev var (0.1 *. ev +. 0.1))
    [ (10, 0.5); (100, 0.1); (100, 0.9); (1000, 0.01); (33, 0.3) ]

let test_binomial_support () =
  let g = Rng.of_int 22 in
  for _ = 1 to 1000 do
    let x = Dist.binomial g 20 0.4 in
    if x < 0 || x > 20 then Alcotest.failf "binomial out of support: %d" x
  done

let test_binomial_extremes () =
  let g = Rng.of_int 23 in
  Alcotest.(check int) "p=0" 0 (Dist.binomial g 100 0.0);
  Alcotest.(check int) "p=1" 100 (Dist.binomial g 100 1.0);
  Alcotest.(check int) "n=0" 0 (Dist.binomial g 0 0.7)

let test_binomial_invalid () =
  let g = Rng.of_int 24 in
  Alcotest.check_raises "n<0" (Invalid_argument "Dist.binomial: n < 0") (fun () ->
      ignore (Dist.binomial g (-1) 0.5));
  (try
     ignore (Dist.binomial g 10 1.5);
     Alcotest.fail "p>1 accepted"
   with Invalid_argument _ -> ())

let test_exponential_mean () =
  let g = Rng.of_int 30 in
  let mean, _ = sample_mean_var 40_000 (fun () -> Dist.exponential g 2.0) in
  check_close "Exp(2) mean" 0.5 mean 0.02

(* The law of [Dist.exponential] itself, at family-wise alpha = 10^-3
   (Bonferroni over two tests): a one-sample KS test of 10^6 Exp(1) draws
   against 1 - e^-x, and an exact two-sided binomial test of how many land
   beyond r = 7.697..., the ziggurat's base-strip edge (mass e^-r, about
   4.5e-4), where KS has little power. *)
let exp_samples = 1_000_000
let exp_tail_edge = 7.69711747013104972

(* P(X <= c) and P(X >= c) for X ~ Bin(n, p), by the pmf recurrence from
   P(X = 0) = (1 - p)^n; for the small means used here the terms beyond
   a few times the mean vanish *)
let binomial_tails n p c =
  let q = 1.0 -. p in
  let pmf = ref (exp (float_of_int n *. log1p (-.p))) in
  let below = ref 0.0 and at = ref 0.0 in
  let k = ref 0 in
  while !k <= c do
    if !k = c then at := !pmf;
    below := !below +. !pmf;
    pmf := !pmf *. float_of_int (n - !k) /. float_of_int (!k + 1) *. p /. q;
    incr k
  done;
  (!below, 1.0 -. !below +. !at)

let test_exponential_law () =
  let per_test = 1e-3 /. 2.0 in
  let g = Rng.of_int 39 in
  let xs = Array.init exp_samples (fun _ -> Dist.exponential g 1.0) in
  let d = Ks.one_sample xs (fun x -> if x <= 0.0 then 0.0 else -.Float.expm1 (-.x)) in
  let eps = Ks.threshold ~alpha:per_test ~m:(float_of_int exp_samples) in
  Alcotest.(check bool) (Printf.sprintf "KS D = %.5f < %.5f" d eps) true (d < eps);
  let beyond = Array.fold_left (fun c x -> if x > exp_tail_edge then c + 1 else c) 0 xs in
  let lower, upper = binomial_tails exp_samples (exp (-.exp_tail_edge)) beyond in
  Alcotest.(check bool)
    (Printf.sprintf "%d draws beyond r: P(<=) = %.3g, P(>=) = %.3g, both > %.3g"
       beyond lower upper (per_test /. 2.0))
    true
    (lower > per_test /. 2.0 && upper > per_test /. 2.0)

(* a NaN rate fails [rate > 0] as well: it is refused, not turned into NaN
   gaps *)
let test_exponential_invalid () =
  let g = Rng.of_int 31 in
  List.iter
    (fun rate ->
      match Dist.exponential g rate with
      | x -> Alcotest.failf "rate %g accepted, drew %g" rate x
      | exception Invalid_argument _ -> ())
    [ 0.0; -1.0; Float.nan; -.Float.infinity ]

let test_multinomial_conservation () =
  let g = Rng.of_int 35 in
  for trial = 1 to 200 do
    let bins = 1 + (trial mod 7) in
    let w = Array.init bins (fun i -> float_of_int ((i mod 3) + 1)) in
    let n = trial * 13 mod 500 in
    let counts = Dist.multinomial g n w in
    Alcotest.(check int) "bin count" bins (Array.length counts);
    Array.iter (fun c -> if c < 0 then Alcotest.failf "negative count %d" c) counts;
    Alcotest.(check int)
      (Printf.sprintf "trial %d conserves n" trial)
      n
      (Array.fold_left ( + ) 0 counts)
  done

let test_multinomial_frequencies () =
  (* chi-square goodness of fit against the cell probabilities at
     alpha = 0.001: a correct sampler fails with probability ~0.001 on
     this fixed seed *)
  let g = Rng.of_int 36 in
  let w = [| 1.0; 2.0; 7.0 |] in
  let total_w = 10.0 in
  let n = 2000 and reps = 50 in
  let counts = Array.make 3 0 in
  for _ = 1 to reps do
    let c = Dist.multinomial g n w in
    Array.iteri (fun i x -> counts.(i) <- counts.(i) + x) c
  done;
  let total = float_of_int (n * reps) in
  let expected = Array.map (fun wi -> total *. wi /. total_w) w in
  let p = Chi2.test counts expected in
  Alcotest.(check bool)
    (Printf.sprintf "chi2 = %.2f, p = %.4f >= 0.001" (Chi2.statistic counts expected) p)
    true (p >= 0.001)

let test_multinomial_degenerate () =
  let g = Rng.of_int 37 in
  Alcotest.(check (array int)) "n=0" [| 0; 0 |] (Dist.multinomial g 0 [| 1.0; 1.0 |]);
  Alcotest.(check (array int)) "single bin" [| 42 |] (Dist.multinomial g 42 [| 3.0 |]);
  Alcotest.(check (array int)) "zero-weight bins get nothing" [| 0; 17; 0 |]
    (Dist.multinomial g 17 [| 0.0; 5.0; 0.0 |]);
  (* zero-weight tail: fp drift in the conditional splits must never leak
     mass past the last positive bin *)
  for _ = 1 to 100 do
    let c = Dist.multinomial g 1000 [| 1.0; 1.0; 0.0; 0.0 |] in
    Alcotest.(check int) "tail bin 2" 0 c.(2);
    Alcotest.(check int) "tail bin 3" 0 c.(3)
  done

let test_multinomial_invalid () =
  let g = Rng.of_int 38 in
  (try
     ignore (Dist.multinomial g 5 [||]);
     Alcotest.fail "empty weights accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Dist.multinomial g 5 [| 0.0; 0.0 |]);
     Alcotest.fail "all-zero weights accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Dist.multinomial g 5 [| 1.0; -1.0 |]);
     Alcotest.fail "negative weight accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Dist.multinomial g (-1) [| 1.0 |]);
    Alcotest.fail "n<0 accepted"
  with Invalid_argument _ -> ()

(* qcheck: binomial is symmetric under p <-> 1-p in distribution; check the
   means of coupled samples rather than exact symmetry. *)
let prop_binomial_complement =
  QCheck.Test.make ~count:30 ~name:"binomial complement mean"
    QCheck.(pair (int_range 1 200) (float_range 0.05 0.95))
    (fun (n, p) ->
      let g = Rng.of_int (n + int_of_float (p *. 1000.0)) in
      let reps = 3000 in
      let s1 = ref 0 and s2 = ref 0 in
      for _ = 1 to reps do
        s1 := !s1 + Dist.binomial g n p;
        s2 := !s2 + Dist.binomial g n (1.0 -. p)
      done;
      let m1 = float_of_int !s1 /. float_of_int reps in
      let m2 = float_of_int !s2 /. float_of_int reps in
      Float.abs (m1 +. m2 -. float_of_int n) < 0.2 *. float_of_int n +. 2.0)

(* [exponential g rate] is an Exp(1) draw divided by [rate]: from equal
   generator states, every rate gives the same draw scaled *)
let test_exponential_scales () =
  let g = Rng.of_int 32 in
  for _ = 1 to 1000 do
    let a = Rng.copy g and b = Rng.copy g in
    let unit = Dist.exponential a 1.0 and scaled = Dist.exponential b 2.5 in
    Alcotest.(check (float 0.0)) "Exp(1) / 2.5" (unit /. 2.5) scaled;
    Alcotest.(check int64) "same outputs taken" (Rng.bits64 a) (Rng.bits64 b);
    ignore (Dist.exponential g 1.0)
  done

(* the exact law of all three branches (direct trials for n <= 32, waiting
   times for p <= 1/2, and its mirror for p > 1/2) against the pmf; the
   tails with fewer than 5 expected draws are pooled into their end cells *)
let test_binomial_law () =
  let g = Rng.of_int 24 in
  let draws = 20_000 in
  List.iter
    (fun (n, p) ->
      let pmf = Array.make (n + 1) 0.0 in
      pmf.(0) <- (1.0 -. p) ** float_of_int n;
      for k = 0 to n - 1 do
        pmf.(k + 1) <- pmf.(k) *. float_of_int (n - k) /. float_of_int (k + 1) *. p /. (1.0 -. p)
      done;
      let expect k = float_of_int draws *. pmf.(k) in
      let lo = ref 0 and hi = ref n in
      while expect !lo < 5.0 do incr lo done;
      while expect !hi < 5.0 do decr hi done;
      let cell k = if k < !lo then 0 else if k > !hi then !hi - !lo else k - !lo in
      let observed = Array.make (!hi - !lo + 1) 0 in
      let expected = Array.make (!hi - !lo + 1) 0.0 in
      Array.iteri (fun k q -> expected.(cell k) <- expected.(cell k) +. (float_of_int draws *. q)) pmf;
      for _ = 1 to draws do
        let c = cell (Dist.binomial g n p) in
        observed.(c) <- observed.(c) + 1
      done;
      let pv = Chi2.test observed expected in
      Alcotest.(check bool)
        (Printf.sprintf "Bin(%d, %.2f): chi2 = %.2f, p = %.4f >= 0.001" n p
           (Chi2.statistic observed expected) pv)
        true (pv >= 0.001))
    [ (20, 0.3); (60, 0.2); (60, 0.8) ]

let suite =
  [
    Alcotest.test_case "binomial moments" `Quick test_binomial_moments;
    Alcotest.test_case "binomial support" `Quick test_binomial_support;
    Alcotest.test_case "binomial extremes" `Quick test_binomial_extremes;
    Alcotest.test_case "binomial invalid args" `Quick test_binomial_invalid;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "exponential law (KS and tail mass)" `Quick test_exponential_law;
    Alcotest.test_case "exponential invalid args" `Quick test_exponential_invalid;
    Alcotest.test_case "multinomial conservation" `Quick test_multinomial_conservation;
    Alcotest.test_case "multinomial frequencies" `Quick test_multinomial_frequencies;
    Alcotest.test_case "multinomial degenerate" `Quick test_multinomial_degenerate;
    Alcotest.test_case "multinomial invalid args" `Quick test_multinomial_invalid;
    QCheck_alcotest.to_alcotest prop_binomial_complement;
    Alcotest.test_case "exponential scales an Exp(1) draw" `Quick test_exponential_scales;
    Alcotest.test_case "binomial law (chi2, every branch)" `Quick test_binomial_law;
  ]
