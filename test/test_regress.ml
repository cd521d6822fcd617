(* Tests for Rumor_prob.Regress: exact recovery on synthetic data. *)

module Regress = Rumor_prob.Regress

(* [log_fit] is the least-squares line of [ts] against [ln ns], so fed
   [exp xs] it is the plain linear fit of [ys] against [xs] *)
let linear_fit xs ys = Regress.log_fit (Array.map exp xs) ys

let test_exact_line () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (2.5 *. x) -. 1.0) xs in
  let f = linear_fit xs ys in
  Alcotest.(check (float 1e-9)) "slope" 2.5 f.Regress.slope;
  Alcotest.(check (float 1e-9)) "intercept" (-1.0) f.Regress.intercept;
  Alcotest.(check (float 1e-9)) "r2" 1.0 f.Regress.r2

let test_noisy_line_r2 () =
  let xs = Array.init 20 (fun i -> float_of_int i) in
  let ys = Array.mapi (fun i x -> x +. if i mod 2 = 0 then 0.5 else -0.5) xs in
  let f = linear_fit xs ys in
  Alcotest.(check bool) "slope near 1" true (Float.abs (f.Regress.slope -. 1.0) < 0.05);
  Alcotest.(check bool) "r2 below 1" true (f.Regress.r2 < 1.0);
  Alcotest.(check bool) "r2 still high" true (f.Regress.r2 > 0.9)

let test_constant_ys () =
  let f = linear_fit [| 1.0; 2.0; 3.0 |] [| 4.0; 4.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "slope" 0.0 f.Regress.slope;
  Alcotest.(check (float 1e-9)) "intercept" 4.0 f.Regress.intercept;
  Alcotest.(check (float 1e-9)) "r2 of perfect constant fit" 1.0 f.Regress.r2

let test_length_mismatch () =
  try
    ignore (linear_fit [| 1.0 |] [| 1.0; 2.0 |]);
    Alcotest.fail "mismatch accepted"
  with Invalid_argument _ -> ()

let test_too_few_points () =
  try
    ignore (linear_fit [| 1.0 |] [| 1.0 |]);
    Alcotest.fail "single point accepted"
  with Invalid_argument _ -> ()

let test_degenerate_x () =
  try
    ignore (linear_fit [| 2.0; 2.0 |] [| 1.0; 3.0 |]);
    Alcotest.fail "constant x accepted"
  with Invalid_argument _ -> ()

let test_power_fit_recovers_exponent () =
  let ns = [| 100.0; 200.0; 400.0; 800.0 |] in
  let ts = Array.map (fun n -> 3.0 *. (n ** 1.5)) ns in
  let f = Regress.power_fit ns ts in
  Alcotest.(check (float 1e-9)) "exponent" 1.5 f.Regress.slope;
  Alcotest.(check (float 1e-6)) "log constant" (log 3.0) f.Regress.intercept

let test_power_fit_on_logarithmic_data () =
  (* T = 5 ln n has power-fit exponent tending to 0 on large n *)
  let ns = [| 1e4; 1e5; 1e6; 1e7 |] in
  let ts = Array.map (fun n -> 5.0 *. log n) ns in
  let f = Regress.power_fit ns ts in
  Alcotest.(check bool) "small exponent" true (f.Regress.slope < 0.15)

let test_power_fit_rejects_nonpositive () =
  try
    ignore (Regress.power_fit [| 1.0; 0.0 |] [| 1.0; 2.0 |]);
    Alcotest.fail "zero x accepted"
  with Invalid_argument _ -> ()

let test_log_fit () =
  let ns = [| 10.0; 100.0; 1000.0 |] in
  let ts = Array.map (fun n -> (2.0 *. log n) +. 7.0) ns in
  let f = Regress.log_fit ns ts in
  Alcotest.(check (float 1e-9)) "slope" 2.0 f.Regress.slope;
  Alcotest.(check (float 1e-9)) "intercept" 7.0 f.Regress.intercept

let prop_fit_is_translation_equivariant =
  QCheck.Test.make ~count:50 ~name:"linear fit shifts with the data"
    QCheck.(
      pair
        (list_of_size (Gen.return 5) (float_range (-10.0) 10.0))
        (float_range (-5.0) 5.0))
    (fun (ys, shift) ->
      let xs = [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
      let ys = Array.of_list ys in
      let f1 = linear_fit xs ys in
      let f2 = linear_fit xs (Array.map (fun y -> y +. shift) ys) in
      Float.abs (f1.Regress.slope -. f2.Regress.slope) < 1e-6
      && Float.abs (f2.Regress.intercept -. f1.Regress.intercept -. shift) < 1e-6)

let suite =
  [
    Alcotest.test_case "exact line recovery" `Quick test_exact_line;
    Alcotest.test_case "noisy line r2" `Quick test_noisy_line_r2;
    Alcotest.test_case "constant ys" `Quick test_constant_ys;
    Alcotest.test_case "length mismatch" `Quick test_length_mismatch;
    Alcotest.test_case "too few points" `Quick test_too_few_points;
    Alcotest.test_case "degenerate x" `Quick test_degenerate_x;
    Alcotest.test_case "power fit exponent" `Quick test_power_fit_recovers_exponent;
    Alcotest.test_case "power fit on log data" `Quick test_power_fit_on_logarithmic_data;
    Alcotest.test_case "power fit rejects nonpositive" `Quick
      test_power_fit_rejects_nonpositive;
    Alcotest.test_case "log fit" `Quick test_log_fit;
    QCheck_alcotest.to_alcotest prop_fit_is_translation_equivariant;
  ]
