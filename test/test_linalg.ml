(* Tests for Rumor_prob.Linalg. *)

module Linalg = Rumor_prob.Linalg

let check_vec label expected actual =
  Array.iteri
    (fun i e ->
      if Float.abs (e -. actual.(i)) > 1e-9 then
        Alcotest.failf "%s: component %d is %.12f, want %.12f" label i actual.(i) e)
    expected

(* max_i |(a x - b)_i|: how far [x] is from solving [a x = b] *)
let residual a x b =
  Array.fold_left max 0.0
    (Array.mapi
       (fun i row ->
         let ax = ref 0.0 in
         Array.iteri (fun j aij -> ax := !ax +. (aij *. x.(j))) row;
         Float.abs (!ax -. b.(i)))
       a)

let test_identity () =
  let a = [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  check_vec "identity" [| 3.0; -4.0 |] (Linalg.solve a [| 3.0; -4.0 |])

let test_known_2x2 () =
  let a = [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  (* solution of 2x + y = 5, x + 3y = 10 is x = 1, y = 3 *)
  check_vec "2x2" [| 1.0; 3.0 |] (Linalg.solve a [| 5.0; 10.0 |])

let test_requires_pivoting () =
  (* zero on the diagonal forces a row swap *)
  let a = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  check_vec "pivot" [| 7.0; 2.0 |] (Linalg.solve a [| 2.0; 7.0 |])

let test_larger_system_residual () =
  let n = 30 in
  (* diagonally dominant system with known structure *)
  let a =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then 10.0 +. float_of_int i
            else 1.0 /. float_of_int (1 + abs (i - j))))
  in
  let b = Array.init n (fun i -> float_of_int (i * i)) in
  let x = Linalg.solve a b in
  let r = residual a x b in
  Alcotest.(check bool) (Printf.sprintf "residual %.2e small" r) true (r < 1e-8)

let test_singular_rejected () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  try
    ignore (Linalg.solve a [| 1.0; 2.0 |]);
    Alcotest.fail "singular accepted"
  with Invalid_argument _ -> ()

let test_dimension_mismatch () =
  (try
     ignore (Linalg.solve [| [| 1.0; 2.0 |] |] [| 1.0 |]);
     Alcotest.fail "non-square accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Linalg.solve [| [| 1.0 |] |] [| 1.0; 2.0 |]);
    Alcotest.fail "mismatched rhs accepted"
  with Invalid_argument _ -> ()

let test_inputs_not_mutated () =
  let a = [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let b = [| 5.0; 10.0 |] in
  let (_ : float array) = Linalg.solve a b in
  Alcotest.(check (array (float 1e-12))) "matrix row 0 intact" [| 2.0; 1.0 |] a.(0);
  Alcotest.(check (array (float 1e-12))) "rhs intact" [| 5.0; 10.0 |] b

let prop_solve_then_multiply =
  QCheck.Test.make ~count:50 ~name:"solve leaves a small residual"
    QCheck.(pair (int_range 1 8) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rumor_prob.Rng.of_int seed in
      (* diagonally dominant random matrix: always solvable *)
      let a =
        Array.init n (fun i ->
            Array.init n (fun j ->
                if i = j then 5.0 +. Rumor_prob.Rng.float rng 5.0
                else Rumor_prob.Rng.float rng 1.0))
      in
      let b = Array.init n (fun _ -> Rumor_prob.Rng.float rng 10.0 -. 5.0) in
      let x = Linalg.solve a b in
      residual a x b < 1e-8)

let suite =
  [
    Alcotest.test_case "identity" `Quick test_identity;
    Alcotest.test_case "known 2x2" `Quick test_known_2x2;
    Alcotest.test_case "pivoting" `Quick test_requires_pivoting;
    Alcotest.test_case "larger system residual" `Quick test_larger_system_residual;
    Alcotest.test_case "singular rejected" `Quick test_singular_rejected;
    Alcotest.test_case "dimension mismatch" `Quick test_dimension_mismatch;
    Alcotest.test_case "inputs not mutated" `Quick test_inputs_not_mutated;
    QCheck_alcotest.to_alcotest prop_solve_then_multiply;
  ]
