(* Tests for Rumor_prob.Fenwick: prefix sums and proportional sampling
   against a brute-force reference. *)

module Rng = Rumor_prob.Rng
module Fenwick = Rumor_prob.Fenwick

let brute_prefix c i =
  let s = ref 0 in
  for j = 0 to i - 1 do
    s := !s + c.(j)
  done;
  !s

let brute_find c r =
  let acc = ref 0 and i = ref 0 in
  while !acc + c.(!i) <= r do
    acc := !acc + c.(!i);
    incr i
  done;
  (!i, r - !acc)

let test_of_counts_matches_brute () =
  let rng = Rng.of_int 81 in
  for n = 1 to 40 do
    let c = Array.init n (fun _ -> Rng.int rng 5) in
    let t = Fenwick.of_counts c in
    Alcotest.(check int) "size" n (Fenwick.size t);
    Alcotest.(check int) "total" (brute_prefix c n) (Fenwick.total t);
    for i = 0 to n do
      Alcotest.(check int)
        (Printf.sprintf "prefix %d/%d" i n)
        (brute_prefix c i) (Fenwick.prefix t i)
    done;
    for i = 0 to n - 1 do
      Alcotest.(check int) (Printf.sprintf "get %d/%d" i n) c.(i) (Fenwick.get t i)
    done
  done

let test_add_updates () =
  let rng = Rng.of_int 82 in
  let n = 30 in
  let c = Array.make n 0 in
  let t = Fenwick.create n in
  for _ = 1 to 500 do
    let i = Rng.int rng n in
    let delta = Rng.int rng 4 - c.(i) in
    c.(i) <- c.(i) + delta;
    Fenwick.add t i delta
  done;
  for i = 0 to n do
    Alcotest.(check int) (Printf.sprintf "prefix %d" i) (brute_prefix c i)
      (Fenwick.prefix t i)
  done;
  Alcotest.(check int) "total" (brute_prefix c n) (Fenwick.total t)

let test_find_matches_brute () =
  let c = [| 3; 0; 1; 0; 0; 5; 2 |] in
  let t = Fenwick.of_counts c in
  for r = 0 to Fenwick.total t - 1 do
    let bi, bres = brute_find c r in
    let i, res = Fenwick.find t r in
    Alcotest.(check int) (Printf.sprintf "find %d index" r) bi i;
    Alcotest.(check int) (Printf.sprintf "find %d residual" r) bres res
  done

(* find_into is find without the pair: same index and residual at every
   rank, over sizes straddling powers of two (the descent's first step is
   cached at creation), and no allocation *)
let test_find_into () =
  let rng = Rng.of_int 85 in
  for n = 1 to 70 do
    let c = Array.init n (fun _ -> Rng.int rng 4) in
    c.(Rng.int rng n) <- 1;
    let t = Fenwick.of_counts c in
    let residual = ref (-1) in
    for r = 0 to Fenwick.total t - 1 do
      let i, res = Fenwick.find t r in
      Alcotest.(check int) (Printf.sprintf "n=%d r=%d index" n r) i
        (Fenwick.find_into t r ~residual);
      Alcotest.(check int) (Printf.sprintf "n=%d r=%d residual" n r) res !residual
    done
  done;
  let t = Fenwick.of_counts (Array.init 10_000 (fun i -> 1 + (i mod 3))) in
  let total = Fenwick.total t in
  let residual = ref 0 and sink = ref 0 in
  let before = Gc.minor_words () in
  for r = 0 to total - 1 do
    sink := !sink + Fenwick.find_into t r ~residual
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%d finds allocate %.0f words" total words)
    true (words < 64.0 && !sink > 0)

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
  (try
     ignore (Fenwick.create (-1));
     Alcotest.fail "negative size accepted"
   with Invalid_argument _ -> ());
  let t = Fenwick.of_counts [| 1; 2 |] in
  (try
     Fenwick.add t 2 1;
     Alcotest.fail "out-of-range add accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Fenwick.prefix t 3);
     Alcotest.fail "out-of-range prefix accepted"
   with Invalid_argument _ -> ());
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
    Alcotest.test_case "of_counts matches brute force" `Quick
      test_of_counts_matches_brute;
    Alcotest.test_case "add updates prefixes" `Quick test_add_updates;
    Alcotest.test_case "find matches brute force" `Quick test_find_matches_brute;
    Alcotest.test_case "find_into = find, allocation-free" `Quick test_find_into;
    Alcotest.test_case "find samples proportionally" `Quick
      test_find_is_proportional;
    Alcotest.test_case "invalid args" `Quick test_invalid;
  ]
