(* Tests for Rumor_graph.Gen_random. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_random
module Algo = Rumor_graph.Algo

let test_erdos_renyi_extremes () =
  let rng = Rng.of_int 61 in
  let empty = Gen.erdos_renyi rng ~n:10 ~p:0.0 in
  Alcotest.(check int) "p=0 no edges" 0 (Graph.num_edges empty);
  let full = Gen.erdos_renyi rng ~n:10 ~p:1.0 in
  Alcotest.(check int) "p=1 complete" 45 (Graph.num_edges full);
  Graph.validate full

let test_erdos_renyi_density () =
  let rng = Rng.of_int 62 in
  let n = 300 and p = 0.05 in
  let stats = Rumor_prob.Stats.create () in
  for _ = 1 to 20 do
    let g = Gen.erdos_renyi rng ~n ~p in
    Graph.validate g;
    Rumor_prob.Stats.add_int stats (Graph.num_edges g)
  done;
  let expected = p *. float_of_int (n * (n - 1) / 2) in
  let mean = Rumor_prob.Stats.mean stats in
  Alcotest.(check bool)
    (Printf.sprintf "mean edges %.1f near %.1f" mean expected)
    true
    (Float.abs (mean -. expected) < 0.08 *. expected)

let test_erdos_renyi_invalid () =
  let rng = Rng.of_int 63 in
  (try
     ignore (Gen.erdos_renyi rng ~n:5 ~p:1.5);
     Alcotest.fail "p > 1 accepted"
   with Invalid_argument _ -> ());
  (* refused before the row table is sized by n *)
  try
    ignore (Gen.erdos_renyi rng ~n:((1 lsl 24) + 1) ~p:0.5);
    Alcotest.fail "n > 2^24 accepted"
  with Invalid_argument m ->
    Alcotest.(check bool) ("message: " ^ m) true (String.ends_with ~suffix:"16777216)" m)

(* The G(n, p) sampler as it stood edge by edge, kept here as a reference:
   one geometric skip per edge, decoded into (row, column) with a running
   row cursor and streamed into the Builder.  The library now draws the
   skips in blocks and stages each row's columns for Graph.of_upper_rows;
   it must make the same draws and build the same graph. *)
let reference_erdos_renyi rng ~n ~p =
  let total = n * (n - 1) / 2 in
  let b =
    Graph.Builder.create
      ~capacity:(if p >= 1.0 then total else 1 + int_of_float (p *. float_of_int total))
      ~n ()
  in
  if p >= 1.0 then
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        Graph.Builder.add_edge b u v
      done
    done
  else if p > 0.0 then begin
    let log1mp = log1p (-.p) in
    let idx = ref (-1) and row = ref 0 and row_start = ref 0 in
    let continue = ref true in
    while !continue do
      let u = 1.0 -. Rng.float rng 1.0 in
      let gap = int_of_float (ceil (log u /. log1mp)) in
      let gap = if gap < 1 then 1 else gap in
      idx := !idx + gap;
      if !idx >= total then continue := false
      else begin
        while !idx - !row_start >= n - 1 - !row do
          row_start := !row_start + (n - 1 - !row);
          incr row
        done;
        Graph.Builder.add_edge b !row (!row + 1 + (!idx - !row_start))
      end
    done
  end;
  Graph.Builder.finish b

(* [erdos_renyi] against the reference: the same graph by Csr_check.same,
   and the generator left in the same state (its next output) *)
let er_agrees_with_reference ~n ~p ~seed =
  let label = Printf.sprintf "n=%d p=%g seed=%d" n p seed in
  let rng_ref = Rng.of_int seed and rng = Rng.of_int seed in
  let want = reference_erdos_renyi rng_ref ~n ~p in
  Csr_check.same label want (Gen.erdos_renyi rng ~n ~p);
  Alcotest.(check int64) (label ^ ": next output") (Rng.bits64 rng_ref) (Rng.bits64 rng)

(* p = 0, tiny p (mostly edgeless, a block never fills), mid p (blocks
   fill and the column buffer grows past its mean-sized start) and p close
   to 1 (every row full, skips of 1), for 1 <= n <= 300 *)
let prop_erdos_renyi_matches_reference =
  let p_of (regime, x) =
    match regime with
    | 0 -> 0.0
    | 1 -> 1e-4 *. x
    | 2 -> 0.005 +. (0.5 *. x)
    | _ -> 1.0 -. (1e-3 *. x)
  in
  QCheck.Test.make ~count:300 ~name:"erdos_renyi = the edge-by-edge Builder reference"
    QCheck.(triple (int_range 1 300) (pair (int_range 0 3) (float_bound_inclusive 1.0))
              (int_range 0 1_000_000))
    (fun (n, regime, seed) ->
      er_agrees_with_reference ~n ~p:(p_of regime) ~seed;
      true)

(* the benchmark's graphs: G(10^4, 1.25 ln n / n), two draws *)
let test_erdos_renyi_matches_reference_at_scale () =
  let n = 10_000 in
  let p = 1.25 *. log (float_of_int n) /. float_of_int n in
  List.iter (fun seed -> er_agrees_with_reference ~n ~p ~seed) [ 1; 2 ]

let test_gnm_exact () =
  let rng = Rng.of_int 64 in
  for m = 0 to 10 do
    let g = Gen.gnm rng ~n:6 ~m in
    Graph.validate g;
    Alcotest.(check int) "exact edge count" m (Graph.num_edges g)
  done

let test_gnm_invalid () =
  let rng = Rng.of_int 65 in
  try
    ignore (Gen.gnm rng ~n:4 ~m:7);
    Alcotest.fail "m too large accepted"
  with Invalid_argument _ -> ()

let test_random_regular_degrees () =
  let rng = Rng.of_int 66 in
  List.iter
    (fun (n, d) ->
      let g = Gen.random_regular rng ~n ~d in
      Graph.validate g;
      Alcotest.(check (option int))
        (Printf.sprintf "%d-regular on %d vertices" d n)
        (Some d) (Graph.regular_degree g))
    [ (10, 3); (50, 4); (100, 7); (64, 10); (200, 16) ]

let test_random_regular_invalid () =
  let rng = Rng.of_int 67 in
  (try
     ignore (Gen.random_regular rng ~n:5 ~d:3);
     Alcotest.fail "odd n*d accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Gen.random_regular rng ~n:5 ~d:5);
     Alcotest.fail "d >= n accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Gen.random_regular rng ~n:5 ~d:0);
     Alcotest.fail "d = 0 accepted"
   with Invalid_argument _ -> ());
  (* 2^24 x 258 stubs: past the 4-byte stub indices, refused before the
     tables are sized *)
  try
    ignore (Gen.random_regular rng ~n:(1 lsl 24) ~d:258);
    Alcotest.fail "n d > 2^32 accepted"
  with Invalid_argument m ->
    Alcotest.(check bool) ("message: " ^ m) true (String.ends_with ~suffix:"32 bits" m)

let test_random_regular_connected () =
  let rng = Rng.of_int 68 in
  for _ = 1 to 5 do
    let g = Gen.random_regular_connected rng ~n:60 ~d:3 in
    Alcotest.(check bool) "connected" true (Algo.is_connected g);
    Alcotest.(check (option int)) "regular" (Some 3) (Graph.regular_degree g)
  done

let test_random_regular_samples_vary () =
  let rng = Rng.of_int 69 in
  let g1 = Gen.random_regular rng ~n:50 ~d:4 in
  let g2 = Gen.random_regular rng ~n:50 ~d:4 in
  let differs = ref false in
  Graph.iter_edges g1 (fun u v -> if not (Graph.mem_edge g2 u v) then differs := true);
  Alcotest.(check bool) "two samples differ" true !differs

let test_determinism_by_seed () =
  let sample seed =
    let rng = Rng.of_int seed in
    Gen.random_regular rng ~n:40 ~d:4
  in
  let g1 = sample 7 and g2 = sample 7 in
  let same = ref true in
  Graph.iter_edges g1 (fun u v -> if not (Graph.mem_edge g2 u v) then same := false);
  Alcotest.(check int) "same edge count" (Graph.num_edges g1) (Graph.num_edges g2);
  Alcotest.(check bool) "same edges from same seed" true !same

let prop_random_regular_simple =
  QCheck.Test.make ~count:30 ~name:"random regular graphs are simple and regular"
    QCheck.(pair (int_range 3 25) (int_range 0 1000))
    (fun (half, dseed) ->
      (* even n makes every 1 <= d <= n-1 a valid degree, including the
         dense regime served by complementation *)
      let n = 2 * half in
      let d = 1 + (dseed mod (n - 1)) in
      let rng = Rng.of_int ((n * 131) + d) in
      let g = Gen.random_regular rng ~n ~d in
      Graph.validate g;
      Graph.regular_degree g = Some d)

let test_random_regular_dense () =
  let rng = Rng.of_int 70 in
  (* d = n - 1 is the complete graph; other dense degrees go through the
     complement construction *)
  let g = Gen.random_regular rng ~n:8 ~d:7 in
  Alcotest.(check int) "K8 edges" 28 (Graph.num_edges g);
  List.iter
    (fun (n, d) ->
      let g = Gen.random_regular rng ~n ~d in
      Graph.validate g;
      Alcotest.(check (option int))
        (Printf.sprintf "dense %d-regular on %d" d n)
        (Some d) (Graph.regular_degree g))
    [ (10, 7); (12, 9); (20, 15); (16, 12) ]

(* The sparse sampler writes its CSR itself (a transpose of the repaired
   pairing, checked by Graph.of_csr) instead of streaming its edges into
   the Builder.  Over 500 draws of each shape, the graph must be exactly
   the CSR the Builder makes of the same edges: the sparse path at d = 1,
   d = 2, an odd d and the paper-figs 500x12, the complement path
   (d > n/2) and the complete graph (d = n - 1). *)
let test_random_regular_matches_builder () =
  List.iter
    (fun (shape, n, d) ->
      let rng = Rng.of_int ((1000 * n) + d) in
      for draw = 1 to 500 do
        let g = Gen.random_regular rng ~n ~d in
        let b = Graph.Builder.create ~n () in
        Graph.iter_edges g (Graph.Builder.add_edge b);
        Csr_check.same
          (Printf.sprintf "%s (n=%d d=%d) draw %d" shape n d draw)
          (Graph.Builder.finish b) g
      done)
    [
      ("d = 1", 20, 1);
      ("d = 2", 30, 2);
      ("odd d", 40, 5);
      ("500x12", 500, 12);
      ("complement", 30, 20);
      ("d = n - 1", 16, 15);
    ]

(* The sparse regular sampler as it stood with its on-line pair test, kept
   here as a reference: pairs are tested in index order, and a pair (u, v)
   is defective iff it is a loop or v already stands in one of the
   cnt.(u) healthy slots of u, found by a masked scan of all d slots.
   The shuffle, the latest-first switch repair and the retries are the
   sampler's, with the same draws in the same order.  The library now
   flags first occurrences in one pass per vertex; it must flag exactly
   these pairs and leave the healthy lists in this order, so the repair
   makes the same draws and builds the same graph. *)
let reference_random_regular rng ~n ~d =
  let half = n * d / 2 in
  let nbr = Array.make (n * d) 0 and cnt = Array.make n 0 in
  let slot a b =
    let s = ref (a * d) and hi = (a * d) + cnt.(a) in
    while !s < hi && nbr.(!s) <> b do
      incr s
    done;
    if !s < hi then !s else -1
  in
  let link a b =
    nbr.((a * d) + cnt.(a)) <- b;
    cnt.(a) <- cnt.(a) + 1
  in
  let unlink a b =
    let s = slot a b in
    cnt.(a) <- cnt.(a) - 1;
    nbr.(s) <- nbr.((a * d) + cnt.(a))
  in
  let stubs = Array.make (n * d) 0 in
  let attempt () =
    Array.iteri (fun s _ -> stubs.(s) <- s / d) stubs;
    for i = (n * d) - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = stubs.(i) in
      stubs.(i) <- stubs.(j);
      stubs.(j) <- t
    done;
    Array.fill cnt 0 n 0;
    let bad = ref [] (* latest-found first *) and pending = Array.make half false in
    for i = 0 to half - 1 do
      let u = stubs.(2 * i) and v = stubs.((2 * i) + 1) in
      let base = u * d and live = cnt.(u) in
      let hit = ref ((u lxor v) - 1) in
      for k = 0 to d - 1 do
        hit := !hit lor (((nbr.(base + k) lxor v) - 1) land (k - live))
      done;
      if !hit < 0 then begin
        bad := i :: !bad;
        pending.(i) <- true
      end
      else begin
        link u v;
        link v u
      end
    done;
    let switches = ref 0 in
    let max_switches = (200 * (List.length !bad + 1)) + 1000 in
    let rec repair todo =
      match todo with
      | [] -> true
      | _ when !switches > max_switches -> false
      | i :: rest ->
          incr switches;
          let j = Rng.int rng half in
          let u = stubs.(2 * i) and v = stubs.((2 * i) + 1) in
          let x = stubs.(2 * j) and y = stubs.((2 * j) + 1) in
          if
            j <> i && u <> x && v <> y
            && slot u x < 0
            && slot v y < 0
            && (not ((u = v && x = y) || (u = y && x = v)))
            && not pending.(j)
          then begin
            unlink x y;
            unlink y x;
            stubs.((2 * i) + 1) <- x;
            stubs.(2 * j) <- v;
            link u x;
            link x u;
            link v y;
            link y v;
            pending.(i) <- false;
            repair rest
          end
          else repair todo
    in
    repair !bad
  in
  let rec loop tries =
    if tries > 100 then Alcotest.fail "reference: repair failed repeatedly"
    else if not (attempt ()) then loop (tries + 1)
  in
  loop 0;
  Graph.of_edges ~n (List.init half (fun i -> (stubs.(2 * i), stubs.((2 * i) + 1))))

(* [random_regular] against the reference: the same graph by Csr_check.same,
   and the generator left in the same state (its next output) *)
let agrees_with_reference ~n ~d ~seed =
  let label = Printf.sprintf "n=%d d=%d seed=%d" n d seed in
  let rng_ref = Rng.of_int seed and rng = Rng.of_int seed in
  let want = reference_random_regular rng_ref ~n ~d in
  Csr_check.same label want (Gen.random_regular rng ~n ~d);
  Alcotest.(check int64) (label ^ ": next output") (Rng.bits64 rng_ref) (Rng.bits64 rng)

let test_random_regular_matches_reference () =
  List.iter
    (fun (n, d) ->
      for seed = 1 to 20 do
        agrees_with_reference ~n ~d ~seed
      done)
    [ (20, 1); (30, 2); (40, 5); (9, 4); (500, 12); (30, 12) ]

(* random sparse shapes: 4 <= n <= 200, 1 <= d <= n/2, n d even *)
let prop_random_regular_matches_reference =
  QCheck.Test.make ~count:200 ~name:"random regular = the on-line pair test reference"
    QCheck.(triple (int_range 4 200) (int_range 0 10_000) (int_range 0 1_000_000))
    (fun (n, dseed, seed) ->
      let d = 1 + (dseed mod (n / 2)) in
      let d = if n * d mod 2 = 0 then d else if d > 1 then d - 1 else 2 in
      agrees_with_reference ~n ~d ~seed;
      true)

(* Golden digests of random_regular_connected: the CSR (degree prefix sums
   and sorted adjacency) plus the generator's next four outputs, which pin
   its state afterwards.  Recorded from the Hashtbl-based repair; a faster
   generator must consume the same draws and build the same graphs.
   Re-recorded once when [Rng.int] became Lemire's multiply-shift, which
   maps the generator's outputs to other values.  (30, 12) needs many
   repairs per attempt; (40, 25) goes through the complement
   construction. *)
let regular_golden =
  [
    ("n=20 d=3 seed=1", "66a3dae58071e1fc444ad81d60859132");
    ("n=20 d=3 seed=2", "3faca82393fda4df7f2daa9dcebfdea9");
    ("n=20 d=3 seed=3", "1c796f5108695e071ff9bd2c4e3eeeef");
    ("n=64 d=4 seed=1", "08ba530e1018de279334e83ea36309e3");
    ("n=64 d=4 seed=2", "3a2673c6315895634bae2880f71931e5");
    ("n=64 d=4 seed=3", "13282a9c798bfdc33a6f4600539cbc80");
    ("n=500 d=12 seed=1", "81ba5cbc34e0f9647b16ddcd49338f9e");
    ("n=500 d=12 seed=2", "edabcc3804e785edb943dc736dbd2690");
    ("n=500 d=12 seed=3", "3591909d3c509edcf4edc40bfd56aa73");
    ("n=1000 d=16 seed=1", "d2f34fdf306763d0dcf74500854e8cfd");
    ("n=1000 d=16 seed=2", "1bb1e2340d085b47200b837a9cd2fd24");
    ("n=1000 d=16 seed=3", "a8af4d0dfed4c984976b70f0093029e9");
    ("n=30 d=12 seed=1", "ae6d7520ebf99be7fc4937303819f955");
    ("n=30 d=12 seed=2", "687e1c2b187d29d43e298f612f01f274");
    ("n=30 d=12 seed=3", "9eacfcef4a5e4869aed19cc9f1a26c49");
    ("n=40 d=25 seed=1", "01b29a9db81a11345013a67c5eaa2b65");
    ("n=40 d=25 seed=2", "6b365e271a9a50f9f4e4d6fef03d5111");
    ("n=40 d=25 seed=3", "728fc1e038f709caede9b5a6828208ef");
  ]

let regular_digest ~n ~d ~seed =
  let rng = Rng.of_int seed in
  let g = Gen.random_regular_connected rng ~n ~d in
  let buf = Buffer.create 4096 in
  let off = ref 0 in
  for u = 0 to Graph.n g - 1 do
    Printf.bprintf buf "%d:" !off;
    for i = 0 to Graph.degree g u - 1 do
      Printf.bprintf buf " %d" (Graph.neighbor g u i)
    done;
    Buffer.add_char buf '\n';
    off := !off + Graph.degree g u
  done;
  for _ = 1 to 4 do
    Printf.bprintf buf "%Lx\n" (Rng.bits64 rng)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_random_regular_golden () =
  List.iter
    (fun (n, d) ->
      List.iter
        (fun seed ->
          let label = Printf.sprintf "n=%d d=%d seed=%d" n d seed in
          let got = regular_digest ~n ~d ~seed in
          match List.assoc_opt label regular_golden with
          | Some want -> Alcotest.(check string) label want got
          | None -> Alcotest.failf "no golden digest for (%S, %S)" label got)
        [ 1; 2; 3 ])
    [ (20, 3); (64, 4); (500, 12); (1000, 16); (30, 12); (40, 25) ]

let test_preferential_attachment_structure () =
  let rng = Rng.of_int 75 in
  let n = 400 and m = 3 in
  let g = Gen.preferential_attachment rng ~n ~m in
  Graph.validate g;
  Alcotest.(check int) "n" n (Graph.n g);
  (* seed clique C(m+1, 2) edges plus m per subsequent vertex *)
  Alcotest.(check int) "edge count"
    ((m * (m + 1) / 2) + (m * (n - m - 1)))
    (Graph.num_edges g);
  Alcotest.(check bool) "connected" true (Algo.is_connected g);
  Alcotest.(check bool) "min degree >= m" true (Graph.min_degree g >= m)

let test_preferential_attachment_has_hubs () =
  (* the degree distribution is heavy-tailed: the max degree far exceeds
     the mean (which is ~2m) *)
  let rng = Rng.of_int 76 in
  let g = Gen.preferential_attachment rng ~n:2000 ~m:3 in
  let mean_degree = float_of_int (Graph.total_degree g) /. 2000.0 in
  let max_degree = List.fold_left max 0 (List.init 2000 (Graph.degree g)) in
  Alcotest.(check bool)
    (Printf.sprintf "max degree %d >> mean %.1f" max_degree mean_degree)
    true
    (float_of_int max_degree > 5.0 *. mean_degree)

let test_preferential_attachment_invalid () =
  let rng = Rng.of_int 77 in
  (try
     ignore (Gen.preferential_attachment rng ~n:5 ~m:0);
     Alcotest.fail "m = 0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Gen.preferential_attachment rng ~n:3 ~m:3);
    Alcotest.fail "n <= m accepted"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "erdos-renyi extremes" `Quick test_erdos_renyi_extremes;
    Alcotest.test_case "preferential attachment structure" `Quick
      test_preferential_attachment_structure;
    Alcotest.test_case "preferential attachment hubs" `Quick
      test_preferential_attachment_has_hubs;
    Alcotest.test_case "preferential attachment invalid" `Quick
      test_preferential_attachment_invalid;
    Alcotest.test_case "erdos-renyi density" `Quick test_erdos_renyi_density;
    Alcotest.test_case "erdos-renyi invalid" `Quick test_erdos_renyi_invalid;
    Alcotest.test_case "erdos-renyi = reference at n = 10^4" `Quick
      test_erdos_renyi_matches_reference_at_scale;
    QCheck_alcotest.to_alcotest prop_erdos_renyi_matches_reference;
    Alcotest.test_case "gnm exact counts" `Quick test_gnm_exact;
    Alcotest.test_case "gnm invalid" `Quick test_gnm_invalid;
    Alcotest.test_case "random regular degrees" `Quick test_random_regular_degrees;
    Alcotest.test_case "random regular invalid" `Quick test_random_regular_invalid;
    Alcotest.test_case "random regular connected" `Quick test_random_regular_connected;
    Alcotest.test_case "samples vary" `Quick test_random_regular_samples_vary;
    Alcotest.test_case "determinism by seed" `Quick test_determinism_by_seed;
    Alcotest.test_case "dense regular graphs" `Quick test_random_regular_dense;
    Alcotest.test_case "random regular = its Builder rebuild" `Quick
      test_random_regular_matches_builder;
    Alcotest.test_case "random regular golden digests" `Quick
      test_random_regular_golden;
    Alcotest.test_case "random regular = on-line pair test reference" `Quick
      test_random_regular_matches_reference;
    QCheck_alcotest.to_alcotest prop_random_regular_simple;
    QCheck_alcotest.to_alcotest prop_random_regular_matches_reference;
  ]
