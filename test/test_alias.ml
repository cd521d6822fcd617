(* Tests for Rumor_prob.Alias: exact table probabilities and sampling
   frequencies. *)

module Rng = Rumor_prob.Rng
module Alias = Rumor_prob.Alias

let test_probability_reconstruction () =
  let w = [| 1.0; 3.0; 6.0 |] in
  let t = Alias.create w in
  let total = 10.0 in
  Array.iteri
    (fun i wi ->
      let p = Alias.probability t i in
      if Float.abs (p -. (wi /. total)) > 1e-9 then
        Alcotest.failf "category %d: table probability %.6f, want %.6f" i p
          (wi /. total))
    w

let test_probabilities_sum_to_one () =
  let w = [| 0.3; 0.0; 2.7; 1.0; 5.5 |] in
  let t = Alias.create w in
  let sum = ref 0.0 in
  for i = 0 to Alias.size t - 1 do
    sum := !sum +. Alias.probability t i
  done;
  Alcotest.(check bool) "sums to 1" true (Float.abs (!sum -. 1.0) < 1e-9)

let test_sampling_frequencies () =
  let g = Rng.of_int 41 in
  let w = [| 5.0; 1.0; 4.0 |] in
  let t = Alias.create w in
  let counts = Array.make 3 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Alias.sample t g in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = w.(i) /. 10.0 in
      let actual = float_of_int c /. float_of_int n in
      if Float.abs (expected -. actual) > 0.01 then
        Alcotest.failf "category %d: freq %.4f want %.4f" i actual expected)
    counts

let test_zero_weight_never_sampled () =
  let g = Rng.of_int 42 in
  let t = Alias.create [| 1.0; 0.0; 1.0 |] in
  for _ = 1 to 10_000 do
    if Alias.sample t g = 1 then Alcotest.fail "sampled a zero-weight category"
  done

let test_single_category () =
  let g = Rng.of_int 43 in
  let t = Alias.create [| 3.0 |] in
  Alcotest.(check int) "size" 1 (Alias.size t);
  for _ = 1 to 100 do
    Alcotest.(check int) "only category" 0 (Alias.sample t g)
  done

let test_of_ints () =
  let t = Alias.of_ints [| 2; 2; 4 |] in
  Alcotest.(check bool) "int weights normalise" true
    (Float.abs (Alias.probability t 2 -. 0.5) < 1e-9)

let test_invalid_args () =
  (try
     ignore (Alias.create [||]);
     Alcotest.fail "empty accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Alias.create [| 1.0; -0.5 |]);
     Alcotest.fail "negative accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Alias.create [| 0.0; 0.0 |]);
    Alcotest.fail "zero total accepted"
  with Invalid_argument _ -> ()

let test_large_skew () =
  (* degree-like weights: one huge hub among many unit weights *)
  let g = Rng.of_int 44 in
  let n = 1000 in
  let w = Array.make n 1.0 in
  w.(0) <- float_of_int (n - 1);
  let t = Alias.create w in
  let hub = ref 0 in
  let samples = 50_000 in
  for _ = 1 to samples do
    if Alias.sample t g = 0 then incr hub
  done;
  let p = float_of_int !hub /. float_of_int samples in
  Alcotest.(check bool)
    (Printf.sprintf "hub frequency %.3f near 0.5" p)
    true
    (Float.abs (p -. 0.5) < 0.02)

(* Vose's construction with two Stdlib stacks, the form [Alias.create] had
   before its work lists moved into one array; it returns a sampler built
   the way [Alias.sample] draws (column, then coin). *)
let stack_reference_sampler w =
  let n = Array.length w in
  let total = Array.fold_left ( +. ) 0.0 w in
  let scaled = Array.map (fun x -> x *. float_of_int n /. total) w in
  let prob = Array.make n 1.0 and alias = Array.init n Fun.id in
  let small = Stack.create () and large = Stack.create () in
  Array.iteri
    (fun i p -> if p < 1.0 then Stack.push i small else Stack.push i large)
    scaled;
  while (not (Stack.is_empty small)) && not (Stack.is_empty large) do
    let s = Stack.pop small and l = Stack.pop large in
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) -. (1.0 -. scaled.(s));
    if scaled.(l) < 1.0 then Stack.push l small else Stack.push l large
  done;
  Stack.iter (fun i -> prob.(i) <- 1.0) small;
  Stack.iter (fun i -> prob.(i) <- 1.0) large;
  fun g ->
    let i = Rng.int g n in
    if Rng.float g 1.0 < prob.(i) then i else alias.(i)

let test_same_table_as_stack_form () =
  let wg = Rng.of_int 45 in
  List.iter
    (fun n ->
      let w =
        Array.init n (fun i ->
            if i mod 7 = 3 then 0.0 else Rng.float wg 10.0 +. float_of_int (i mod 5))
      in
      let t = Alias.create w and reference = stack_reference_sampler w in
      let a = Rng.of_int n and b = Rng.of_int n in
      for _ = 1 to 2_000 do
        Alcotest.(check int)
          (Printf.sprintf "n=%d: same draw" n)
          (reference b) (Alias.sample t a)
      done)
    [ 1; 2; 5; 64; 1000 ]

let prop_probability_matches_weights =
  QCheck.Test.make ~count:50 ~name:"alias table probabilities match weights"
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.0 10.0))
    (fun ws ->
      let w = Array.of_list ws in
      QCheck.assume (Array.fold_left ( +. ) 0.0 w > 0.0);
      let t = Alias.create w in
      let total = Array.fold_left ( +. ) 0.0 w in
      Array.to_list w
      |> List.mapi (fun i wi -> Float.abs (Alias.probability t i -. (wi /. total)) < 1e-6)
      |> List.for_all Fun.id)

let suite =
  [
    Alcotest.test_case "probability reconstruction" `Quick test_probability_reconstruction;
    Alcotest.test_case "probabilities sum to 1" `Quick test_probabilities_sum_to_one;
    Alcotest.test_case "sampling frequencies" `Quick test_sampling_frequencies;
    Alcotest.test_case "zero weight never sampled" `Quick test_zero_weight_never_sampled;
    Alcotest.test_case "single category" `Quick test_single_category;
    Alcotest.test_case "of_ints" `Quick test_of_ints;
    Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
    Alcotest.test_case "skewed hub weights" `Quick test_large_skew;
    Alcotest.test_case "same table as the two-stack form" `Quick
      test_same_table_as_stack_form;
    QCheck_alcotest.to_alcotest prop_probability_matches_weights;
  ]
