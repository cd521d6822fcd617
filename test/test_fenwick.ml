(* Tests for Rumor_prob.Fenwick: proportional sampling against a
   brute-force reference. *)

module Rng = Rumor_prob.Rng
module Fenwick = Rumor_prob.Fenwick

let brute_find c r =
  let acc = ref 0 and i = ref 0 in
  while !acc + c.(!i) <= r do
    acc := !acc + c.(!i);
    incr i
  done;
  (!i, r - !acc)

let test_find_matches_brute () =
  let c = [| 3; 0; 1; 0; 0; 5; 2 |] in
  let t = Fenwick.of_counts c in
  for r = 0 to Fenwick.total t - 1 do
    let bi, bres = brute_find c r in
    let i, res = Fenwick.find t r in
    Alcotest.(check int) (Printf.sprintf "find %d index" r) bi i;
    Alcotest.(check int) (Printf.sprintf "find %d residual" r) bres res
  done

(* every rank, over sizes straddling powers of two (the descent's first
   step is cached at creation) *)
let test_find_all_sizes () =
  let rng = Rng.of_int 85 in
  for n = 1 to 70 do
    let c = Array.init n (fun _ -> Rng.int rng 4) in
    c.(Rng.int rng n) <- 1;
    let t = Fenwick.of_counts c in
    for r = 0 to Fenwick.total t - 1 do
      let i, res = Fenwick.find t r and bi, bres = brute_find c r in
      Alcotest.(check int) (Printf.sprintf "n=%d r=%d index" n r) bi i;
      Alcotest.(check int) (Printf.sprintf "n=%d r=%d residual" n r) bres res
    done
  done

let test_find_is_proportional () =
  let rng = Rng.of_int 83 in
  let c = [| 1; 0; 4; 5 |] in
  let t = Fenwick.of_counts c in
  let total = Fenwick.total t in
  let hits = Array.make 4 0 in
  let reps = 40_000 in
  for _ = 1 to reps do
    let i, res = Fenwick.find t (Rng.int rng total) in
    if res < 0 || res >= c.(i) then
      Alcotest.failf "residual %d outside slot %d (count %d)" res i c.(i);
    hits.(i) <- hits.(i) + 1
  done;
  Array.iteri
    (fun i h ->
      let p = float_of_int h /. float_of_int reps in
      let expected = float_of_int c.(i) /. float_of_int total in
      if Float.abs (p -. expected) > 0.01 then
        Alcotest.failf "slot %d frequency %.3f, expected %.3f" i p expected)
    hits

let test_invalid () =
  let t = Fenwick.of_counts [| 1; 2 |] in
  (try
     ignore (Fenwick.find t 3);
     Alcotest.fail "r = total accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Fenwick.find t (-1));
    Alcotest.fail "negative r accepted"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "find matches brute force" `Quick test_find_matches_brute;
    Alcotest.test_case "find at every rank of sizes 1..70" `Quick test_find_all_sizes;
    Alcotest.test_case "find samples proportionally" `Quick
      test_find_is_proportional;
    Alcotest.test_case "invalid args" `Quick test_invalid;
  ]
