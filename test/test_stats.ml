(* Tests for Rumor_prob.Stats: streaming accumulator, summaries and
   quantiles. *)

module Stats = Rumor_prob.Stats

let feed xs =
  let t = Stats.create () in
  List.iter (Stats.add t) xs;
  t

let test_mean_variance_exact () =
  let t = feed [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean t);
  (* population variance is 4; unbiased sample variance is 32/7 *)
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (32.0 /. 7.0)) (Stats.stddev t)

let test_empty_is_nan () =
  let t = Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean t));
  Alcotest.(check bool) "stddev nan" true (Float.is_nan (Stats.stddev t))

let test_single_value () =
  let t = feed [ 3.5 ] in
  Alcotest.(check (float 1e-9)) "mean" 3.5 (Stats.mean t);
  Alcotest.(check bool) "variance undefined" true (Float.is_nan (Stats.stddev t))

let test_add_int () =
  let t = Stats.create () in
  Stats.add_int t 3;
  Stats.add_int t 5;
  Alcotest.(check (float 1e-9)) "mean" 4.0 (Stats.mean t)

let test_numerical_stability () =
  (* Welford should not lose precision with a large offset *)
  let offset = 1e9 in
  let t = feed [ offset +. 1.0; offset +. 2.0; offset +. 3.0 ] in
  Alcotest.(check (float 1e-6)) "stddev" 1.0 (Stats.stddev t)

let test_quantile_interpolation () =
  let sorted = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "q0" 1.0 (Stats.quantile sorted 0.0);
  Alcotest.(check (float 1e-9)) "q1" 4.0 (Stats.quantile sorted 1.0);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Stats.quantile sorted 0.5);
  Alcotest.(check (float 1e-9)) "q25" 1.75 (Stats.quantile sorted 0.25)

let test_summarize () =
  let s = Stats.summarize [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  Alcotest.(check int) "n" 5 s.Stats.n;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "median" 3.0 s.Stats.median;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Stats.max

let test_summarize_empty () =
  try
    ignore (Stats.summarize [||]);
    Alcotest.fail "empty accepted"
  with Invalid_argument _ -> ()

let test_summarize_does_not_mutate () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  let (_ : Stats.summary) = Stats.summarize xs in
  Alcotest.(check (array (float 1e-9))) "input unchanged" [| 3.0; 1.0; 2.0 |] xs

let prop_welford_matches_naive =
  QCheck.Test.make ~count:100 ~name:"welford matches two-pass computation"
    QCheck.(list_of_size (Gen.int_range 2 50) (float_range (-100.0) 100.0))
    (fun xs ->
      let t = feed xs in
      let n = List.length xs in
      let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
        /. float_of_int (n - 1)
      in
      Float.abs (Stats.mean t -. mean) < 1e-6
      && Float.abs ((Stats.stddev t ** 2.0) -. var) < 1e-5 *. (1.0 +. var))

(* an even sample: the quartiles interpolate between order statistics *)
let test_summarize_quartiles () =
  let s = Stats.summarize [| 8.0; 2.0; 6.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "q25" 3.5 s.Stats.q25;
  Alcotest.(check (float 1e-9)) "median" 5.0 s.Stats.median;
  Alcotest.(check (float 1e-9)) "q75" 6.5 s.Stats.q75;
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (20.0 /. 3.0)) s.Stats.stddev

(* Float.compare orders NaN before every number *)
let test_summarize_nan_first () =
  let s = Stats.summarize [| 3.0; nan; 1.0 |] in
  Alcotest.(check bool) "min is nan" true (Float.is_nan s.Stats.min);
  Alcotest.(check (float 1e-9)) "max" 3.0 s.Stats.max;
  Alcotest.(check bool) "mean is nan" true (Float.is_nan s.Stats.mean)

let prop_summary_ordered =
  QCheck.Test.make ~count:200 ~name:"summary order statistics agree with quantile"
    QCheck.(array_of_size (Gen.int_range 1 40) (float_range (-50.0) 50.0))
    (fun xs ->
      let s = Stats.summarize xs in
      let sorted = Array.copy xs in
      Array.sort Float.compare sorted;
      s.Stats.n = Array.length xs
      && Float.equal s.Stats.min sorted.(0)
      && Float.equal s.Stats.max sorted.(Array.length xs - 1)
      && Float.equal s.Stats.median (Stats.quantile sorted 0.5)
      && s.Stats.min <= s.Stats.q25 && s.Stats.q25 <= s.Stats.median
      && s.Stats.median <= s.Stats.q75 && s.Stats.q75 <= s.Stats.max)

let suite =
  [
    Alcotest.test_case "mean/variance exact" `Quick test_mean_variance_exact;
    Alcotest.test_case "empty accumulator" `Quick test_empty_is_nan;
    Alcotest.test_case "single value" `Quick test_single_value;
    Alcotest.test_case "add_int" `Quick test_add_int;
    Alcotest.test_case "numerical stability" `Quick test_numerical_stability;
    Alcotest.test_case "quantile interpolation" `Quick test_quantile_interpolation;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "summarize empty" `Quick test_summarize_empty;
    Alcotest.test_case "summarize does not mutate" `Quick test_summarize_does_not_mutate;
    QCheck_alcotest.to_alcotest prop_welford_matches_naive;
    Alcotest.test_case "summarize quartiles" `Quick test_summarize_quartiles;
    Alcotest.test_case "summarize orders nan first" `Quick test_summarize_nan_first;
    QCheck_alcotest.to_alcotest prop_summary_ordered;
  ]
