(* Tests for Rumor_prob.Rng: determinism, stream independence, uniformity. *)

module Rng = Rumor_prob.Rng

let test_deterministic () =
  let a = Rng.of_int 42 and b = Rng.of_int 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.of_int 42 and b = Rng.of_int 43 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "nearby seeds decorrelate" true (!same < 4)

let test_zero_seed_works () =
  let g = Rng.create 0L in
  let distinct = ref false in
  let first = Rng.bits64 g in
  for _ = 1 to 10 do
    if Rng.bits64 g <> first then distinct := true
  done;
  Alcotest.(check bool) "seed 0 produces a varying stream" true !distinct

let test_copy_diverges_from_original () =
  let a = Rng.of_int 7 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  (* advancing one does not affect the other *)
  let _ = Rng.bits64 a in
  let x = Rng.bits64 a and y = Rng.bits64 b in
  Alcotest.(check bool) "streams are now offset" true (x <> y || Rng.bits64 a <> Rng.bits64 b)

let test_split_independent () =
  let parent = Rng.of_int 5 in
  let child1 = Rng.split parent in
  let child2 = Rng.split parent in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 child1 = Rng.bits64 child2 then incr matches
  done;
  Alcotest.(check int) "children do not mirror each other" 0 !matches

let test_split_n_matches_split_loop () =
  (* split_n is defined as n sequential splits: two parents at the same
     state must agree child by child *)
  let a = Rng.of_int 6 and b = Rng.of_int 6 in
  let children = Rng.split_n a 5 in
  Alcotest.(check int) "five children" 5 (Array.length children);
  Array.iter
    (fun child ->
      let expected = Rng.split b in
      for _ = 1 to 16 do
        Alcotest.(check int64) "same stream as a manual split loop"
          (Rng.bits64 expected) (Rng.bits64 child)
      done)
    children;
  (* the parents advanced identically too *)
  Alcotest.(check int64) "parents in lockstep after split_n" (Rng.bits64 b)
    (Rng.bits64 a)

let test_split_n_edge_cases () =
  let g = Rng.of_int 7 in
  Alcotest.(check int) "zero children" 0 (Array.length (Rng.split_n g 0));
  (try
     ignore (Rng.split_n g (-1));
     Alcotest.fail "negative count accepted"
   with Invalid_argument _ -> ());
  let children = Rng.split_n g 3 in
  let first = Array.map (fun c -> Rng.bits64 c) children in
  Alcotest.(check bool) "children differ from each other" true
    (first.(0) <> first.(1) && first.(1) <> first.(2))

let test_int_bounds () =
  let g = Rng.of_int 1 in
  for bound = 1 to 40 do
    for _ = 1 to 200 do
      let x = Rng.int g bound in
      if x < 0 || x >= bound then
        Alcotest.failf "Rng.int %d produced %d" bound x
    done
  done

let test_int_invalid () =
  let g = Rng.of_int 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int g 0));
  Alcotest.check_raises "negative bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int g (-3)))

let test_int_uniformity () =
  (* chi-squared against uniform over 10 buckets; df = 9, crit(0.999) ~ 27.9 *)
  let g = Rng.of_int 11 in
  let buckets = Array.make 10 0 in
  let samples = 100_000 in
  for _ = 1 to samples do
    let x = Rng.int g 10 in
    buckets.(x) <- buckets.(x) + 1
  done;
  let expected = float_of_int samples /. 10.0 in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 buckets
  in
  Alcotest.(check bool) (Printf.sprintf "chi2=%.1f < 27.9" chi2) true (chi2 < 27.9)

let test_int_non_power_of_two_uniformity () =
  let g = Rng.of_int 12 in
  let buckets = Array.make 7 0 in
  let samples = 70_000 in
  for _ = 1 to samples do
    let x = Rng.int g 7 in
    buckets.(x) <- buckets.(x) + 1
  done;
  let expected = float_of_int samples /. 7.0 in
  Array.iteri
    (fun i c ->
      let ratio = float_of_int c /. expected in
      if ratio < 0.9 || ratio > 1.1 then
        Alcotest.failf "bucket %d has ratio %.3f" i ratio)
    buckets

(* A reference of [Rng.int]'s draw, written as plainly as possible in
   Int64 arithmetic.  Up to 2^30 it is Lemire's multiply-shift with the
   threshold 2^32 mod bound computed up front: x = the high 32 bits of an
   output, m = x * bound, redraw while the low word of m is below the
   threshold, return the high word.  Above 2^30 it is the two-division
   61-bit form: reject r >= (2^61 / bound) * bound, then reduce.
   [Rng.int] must give the same value and consume the same outputs for
   every bound. *)
let reference_int ?(draws = ref 0) g bound =
  let next () =
    incr draws;
    Rng.bits64 g
  in
  if bound <= 1 lsl 30 then begin
    let s = Int64.of_int bound in
    let threshold = Int64.rem (Int64.sub 0x1_0000_0000L s) s in
    let rec go () =
      let m = Int64.mul (Int64.shift_right_logical (next ()) 32) s in
      if Int64.compare (Int64.logand m 0xFFFF_FFFFL) threshold < 0 then go ()
      else Int64.to_int (Int64.shift_right_logical m 32)
    in
    go ()
  end
  else begin
    let limit = (1 lsl 61) / bound * bound in
    let rec go () =
      let r = Int64.to_int (Int64.logand (next ()) 0x1FFFFFFFFFFFFFFFL) in
      if r >= limit then go () else r mod bound
    in
    go ()
  end

let test_int_matches_reference () =
  let bounds =
    [ 3; 7; 10_000; 3 * (1 lsl 28); (1 lsl 30) - 1; (1 lsl 30) + 1; (1 lsl 60) + 1;
      3 * (1 lsl 59); (1 lsl 61) - 1 ]
    @ List.init 62 (fun k -> 1 lsl k)
  in
  List.iter
    (fun bound ->
      let a = Rng.of_int 17 and b = Rng.of_int 17 in
      for i = 1 to 2_000 do
        let want = reference_int b bound in
        let got = Rng.int a bound in
        if got <> want then
          Alcotest.failf "bound %d, draw %d: Rng.int %d <> reference %d" bound i got
            want
      done;
      for _ = 1 to 4 do
        Alcotest.(check int64)
          (Printf.sprintf "bound %d: same stream state afterwards" bound)
          (Rng.bits64 b) (Rng.bits64 a)
      done)
    bounds;
  (* the rejection paths run: 3 * 2^28 rejects 2^32 mod bound = 2^28 of
     2^32 low words (1 in 16), and 2^60 + 1 almost half the 61-bit draws *)
  List.iter
    (fun (bound, at_least) ->
      let g = Rng.of_int 18 in
      let draws = ref 0 in
      for _ = 1 to 1_000 do
        ignore (reference_int ~draws g bound)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "bound %d: %d draws for 1000 values" bound !draws)
        true (!draws >= at_least))
    [ (3 * (1 lsl 28), 1_020); ((1 lsl 60) + 1, 1_500) ]

(* Chi-square uniformity of [Rng.int] across small, composite, prime-ish
   and near-2^30 bounds, at family-wise alpha = 10^-3 (Bonferroni over the
   13 tests below).  A bound up to 1000 is tested cell by cell.  A larger
   one is tested twice: by its value's range (256 equal-width buckets,
   which sees a skew towards one end) and by its residue mod 255 = 3*5*17
   (which sees a periodic excess, the trace a missing rejection leaves
   under a multiply-shift reduction).  Expected counts are exact for
   bounds that 256 or 255 do not divide. *)
let chi2_alpha = 1e-3

let int_bounds =
  [ 2; 3; 7; 12; 1000; 10_000; (1 lsl 20) + 7; 3 * (1 lsl 28); (1 lsl 30) - 1 ]

let int_samples = 500_000

(* the number of x in [0, bound) with [cell x = j], for the bucketings
   above: range buckets hold x with floor(x * cells / bound) = j, i.e.
   ceil(j * bound / cells) <= x < ceil((j + 1) * bound / cells) *)
let ceil_div a b = (a + b - 1) / b

let range_cells = 256
let range_cell bound x = x * range_cells / bound

let range_share bound j =
  ceil_div ((j + 1) * bound) range_cells - ceil_div (j * bound) range_cells

let residue_cells = 255
let residue_share bound j = (bound / residue_cells) + if j < bound mod residue_cells then 1 else 0

(* [(label, cells, cell, share)]: the bucketings a bound is tested under *)
let bucketings bound =
  if bound <= 1000 then [ ("value", bound, (fun x -> x), fun _ -> 1) ]
  else
    [
      ("range", range_cells, range_cell bound, range_share bound);
      ("residue", residue_cells, (fun x -> x mod residue_cells), residue_share bound);
    ]

let int_tests = List.concat_map bucketings int_bounds |> List.length

(* the p-values of [draw]'s sample at [bound], one per bucketing *)
let int_p_values draw bound =
  let xs = Array.init int_samples (fun _ -> draw bound) in
  List.map
    (fun (label, cells, cell, share) ->
      let observed = Array.make cells 0 in
      Array.iter
        (fun x ->
          if x < 0 || x >= bound then Alcotest.failf "bound %d drew %d" bound x;
          let j = cell x in
          observed.(j) <- observed.(j) + 1)
        xs;
      let expected =
        Array.init cells (fun j ->
            float_of_int int_samples *. float_of_int (share j) /. float_of_int bound)
      in
      (label, Chi2.test observed expected))
    (bucketings bound)

(* Chi2.p_value against closed forms: for even df, Q(df/2, x/2) is the
   Poisson(x/2) probability of fewer than df/2 events; for df = 1 it is
   erfc (sqrt (x/2)) *)
let test_chi2_p_value () =
  let even_df df x =
    let term = ref (exp (-.x /. 2.0)) and sum = ref 0.0 in
    for k = 1 to df / 2 do
      sum := !sum +. !term;
      term := !term *. (x /. 2.0) /. float_of_int k
    done;
    !sum
  in
  let close label want got =
    if Float.abs (got -. want) > 1e-9 *. want then
      Alcotest.failf "%s: p = %.12g, want %.12g" label got want
  in
  List.iter
    (fun (df, xs) ->
      List.iter
        (fun x ->
          close (Printf.sprintf "df %d at %g" df x) (even_df df x) (Chi2.p_value ~df x))
        xs)
    [
      (2, [ 0.5; 3.0; 13.8 ]);
      (10, [ 2.0; 9.0; 29.6 ]);
      (254, [ 200.0; 254.0; 330.0 ]);
      (1000, [ 900.0; 1000.0; 1150.0 ]);
    ];
  List.iter
    (fun x -> close (Printf.sprintf "df 1 at %g" x) (Float.erfc (sqrt (x /. 2.0))) (Chi2.p_value ~df:1 x))
    [ 0.2; 3.84; 10.8 ]

let test_int_chi2_uniform () =
  Alcotest.(check int) "family size" 13 int_tests;
  let per_test = chi2_alpha /. float_of_int int_tests in
  let g = Rng.of_int 19 in
  List.iter
    (fun bound ->
      List.iter
        (fun (label, p) ->
          if p < per_test then
            Alcotest.failf "bound %d, %s cells: chi2 p = %.3g < %.3g" bound label p
              per_test)
        (int_p_values (Rng.int g) bound))
    int_bounds

(* the gate bites: a multiply-shift reduction of 32 bits without
   rejection favours every third value at 3 * 2^28 (6 of 16 preimages
   where uniform would give 16/3) *)
let test_int_chi2_rejects_bias () =
  let g = Rng.of_int 20 in
  let biased bound =
    (Int64.to_int (Int64.shift_right_logical (Rng.bits64 g) 32) * bound) lsr 32
  in
  let p = List.assoc "residue" (int_p_values biased (3 * (1 lsl 28))) in
  Alcotest.(check bool) (Printf.sprintf "biased residues p = %.3g" p) true (p < 1e-12)

let test_int_bound_above_2_61 () =
  Alcotest.check_raises "2^61 + 1" (Invalid_argument "Rng.int: bound above 2^61")
    (fun () -> ignore (Rng.int (Rng.of_int 1) ((1 lsl 61) + 1)));
  (* powers of two above 2^61 do not exist below max_int; 2^61 itself
     masks *)
  let x = Rng.int (Rng.of_int 1) (1 lsl 61) in
  Alcotest.(check bool) "2^61 in range" true (x >= 0 && x < 1 lsl 61)

let test_int_in () =
  let g = Rng.of_int 2 in
  for _ = 1 to 1000 do
    let x = Rng.int_in g (-5) 5 in
    if x < -5 || x > 5 then Alcotest.failf "int_in out of range: %d" x
  done;
  Alcotest.(check int) "singleton range" 3 (Rng.int_in g 3 3);
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Rng.int_in g 4 3))

let test_float_range () =
  let g = Rng.of_int 3 in
  for _ = 1 to 10_000 do
    let x = Rng.float g 1.0 in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of [0,1): %f" x
  done

let test_float_mean () =
  let g = Rng.of_int 4 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float g 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f near 0.5" mean)
    true
    (Float.abs (mean -. 0.5) < 0.01)

(* [float] converts its 53 bits with [Float.of_int]; the [Int64.to_float]
   form it replaced must give the same float, bit for bit *)
let test_float_matches_int64_form () =
  let a = Rng.of_int 29 in
  let b = Rng.copy a in
  for i = 1 to 100_000 do
    let x = if i land 1 = 0 then 1.0 else 3.75 in
    let want =
      Int64.to_float (Int64.shift_right_logical (Rng.bits64 b) 11)
      *. (1.0 /. 9007199254740992.0) *. x
    in
    let got = Rng.float a x in
    if Int64.bits_of_float got <> Int64.bits_of_float want then
      Alcotest.failf "draw %d: %h <> %h" i got want
  done

let test_bool_balance () =
  let g = Rng.of_int 5 in
  let heads = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bool g then incr heads
  done;
  let p = float_of_int !heads /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "p=%.3f near 0.5" p) true (Float.abs (p -. 0.5) < 0.01)

let test_bernoulli_extremes () =
  let g = Rng.of_int 6 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli g 0.0);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli g 1.0)
  done

let test_bernoulli_rate () =
  let g = Rng.of_int 7 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli g 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "p=%.3f near 0.3" p) true (Float.abs (p -. 0.3) < 0.01)

let test_shuffle_is_permutation () =
  let g = Rng.of_int 8 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 (fun i -> i)) sorted

let test_shuffle_uniform_small () =
  (* all 6 permutations of 3 elements should appear with roughly equal
     frequency *)
  let g = Rng.of_int 9 in
  let counts = Hashtbl.create 6 in
  let n = 60_000 in
  for _ = 1 to n do
    let a = [| 0; 1; 2 |] in
    Rng.shuffle g a;
    let key = (a.(0) * 9) + (a.(1) * 3) + a.(2) in
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  Alcotest.(check int) "six permutations observed" 6 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c ->
      let ratio = float_of_int c /. (float_of_int n /. 6.0) in
      if ratio < 0.9 || ratio > 1.1 then Alcotest.failf "permutation ratio %.3f" ratio)
    counts

let test_choose () =
  let g = Rng.of_int 10 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let x = Rng.choose g a in
    Alcotest.(check bool) "chosen element is in the array" true (Array.mem x a)
  done;
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose g [||]))

(* [below] is [int] without its argument check: for every valid bound the
   same values from the same outputs, and the same state afterwards.  The
   fixed bounds are the ends of the kernels' range (a degree-1 vertex, the
   largest degree 2^24 - 1, the largest unchecked bound 2^30); the random
   ones from [2^29, 2^30] reject often enough to exercise the redraw. *)
let prop_below_equals_int =
  let bound =
    QCheck.oneof
      [ QCheck.oneofl [ 1; 2; (1 lsl 24) - 1; 1 lsl 30 ];
        QCheck.int_range 1 (1 lsl 30);
        QCheck.int_range (1 lsl 29) (1 lsl 30) ]
  in
  QCheck.Test.make ~count:300 ~name:"below = int on [1, 2^30], same state after"
    QCheck.(pair int bound)
    (fun (seed, bound) ->
      let a = Rng.of_int seed and b = Rng.of_int seed in
      for _ = 1 to 64 do
        let want = Rng.int b bound in
        let got = Rng.below a bound in
        if got <> want then
          QCheck.Test.fail_reportf "bound %d: below %d <> int %d" bound got want
      done;
      List.for_all (fun _ -> Rng.bits64 a = Rng.bits64 b) [ 1; 2; 3; 4 ])

(* [skip g k] is k draws of [int g 1], each one output never rejected *)
let prop_skip_is_unit_draws =
  QCheck.Test.make ~count:200 ~name:"skip k = k draws of int _ 1"
    QCheck.(pair int (int_range (-2) 40))
    (fun (seed, k) ->
      let a = Rng.of_int seed and b = Rng.of_int seed in
      Rng.skip a k;
      for _ = 1 to k do
        if Rng.int b 1 <> 0 then QCheck.Test.fail_report "int _ 1 <> 0"
      done;
      List.for_all (fun _ -> Rng.bits64 a = Rng.bits64 b) [ 1; 2; 3; 4 ])

let suite =
  [
    Alcotest.test_case "deterministic by seed" `Quick test_deterministic;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "zero seed works" `Quick test_zero_seed_works;
    Alcotest.test_case "copy semantics" `Quick test_copy_diverges_from_original;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "split_n = n splits in order" `Quick
      test_split_n_matches_split_loop;
    Alcotest.test_case "split_n edge cases" `Quick test_split_n_edge_cases;
    Alcotest.test_case "int stays in bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects bad bounds" `Quick test_int_invalid;
    Alcotest.test_case "int uniformity (chi2)" `Quick test_int_uniformity;
    Alcotest.test_case "int uniformity, non-power-of-two" `Quick
      test_int_non_power_of_two_uniformity;
    Alcotest.test_case "int = Lemire / 61-bit reference, same draws" `Quick
      test_int_matches_reference;
    QCheck_alcotest.to_alcotest prop_below_equals_int;
    QCheck_alcotest.to_alcotest prop_skip_is_unit_draws;
    Alcotest.test_case "chi2 p-value = closed forms" `Quick test_chi2_p_value;
    Alcotest.test_case "int chi2 uniform at 9 bounds" `Quick test_int_chi2_uniform;
    Alcotest.test_case "int chi2 gate rejects a biased reduction" `Quick
      test_int_chi2_rejects_bias;
    Alcotest.test_case "int refuses bounds above 2^61" `Quick
      test_int_bound_above_2_61;
    Alcotest.test_case "int_in range and errors" `Quick test_int_in;
    Alcotest.test_case "float in [0,1)" `Quick test_float_range;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "float = Int64.to_float form, same bits" `Quick
      test_float_matches_int64_form;
    Alcotest.test_case "bool balance" `Quick test_bool_balance;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "shuffle uniform on 3 elements" `Quick test_shuffle_uniform_small;
    Alcotest.test_case "choose" `Quick test_choose;
  ]
