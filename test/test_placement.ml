(* Tests for Rumor_agents.Placement. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Placement = Rumor_agents.Placement

let test_counts () =
  let g = Gen.complete 10 in
  Alcotest.(check int) "stationary" 7 (Placement.count (Placement.Stationary 7) g);
  Alcotest.(check int) "one per vertex" 10 (Placement.count Placement.One_per_vertex g);
  Alcotest.(check int) "all at" 4 (Placement.count (Placement.All_at (0, 4)) g);
  Alcotest.(check int) "linear 0.5" 5 (Placement.count (Placement.Linear 0.5) g);
  Alcotest.(check int) "linear rounds" 15 (Placement.count (Placement.Linear 1.5) g);
  Alcotest.(check int) "linear never empty" 1 (Placement.count (Placement.Linear 0.001) g);
  Alcotest.check_raises "linear beyond the array limit"
    (Invalid_argument "Placement.count: 1e+31 agents exceed the array limit")
    (fun () -> ignore (Placement.count (Placement.Linear 1e30) g))

(* [Linear alpha] counts alpha * n agents only below the array limit; past
   it, and for NaN or infinity, it raises instead of wrapping around *)
let test_linear_array_limit () =
  let g = Gen.complete 10 in
  let limit = float_of_int Sys.max_array_length in
  let alpha = limit /. 20.0 in
  Alcotest.(check int) "half the limit counts"
    (int_of_float (Float.round (alpha *. 10.0)))
    (Placement.count (Placement.Linear alpha) g);
  List.iter
    (fun alpha ->
      match Placement.count (Placement.Linear alpha) g with
      | k -> Alcotest.failf "Linear %g counted %d agents" alpha k
      | exception Invalid_argument _ -> ())
    [ limit /. 10.0; limit; Float.nan; Float.infinity ]

let test_one_per_vertex () =
  let g = Gen.path 5 in
  let rng = Rng.of_int 71 in
  Alcotest.(check (array int)) "identity placement" [| 0; 1; 2; 3; 4 |]
    (Placement.place rng Placement.One_per_vertex g)

let test_all_at () =
  let g = Gen.path 5 in
  let rng = Rng.of_int 72 in
  Alcotest.(check (array int)) "all on 3" [| 3; 3 |]
    (Placement.place rng (Placement.All_at (3, 2)) g);
  try
    ignore (Placement.place rng (Placement.All_at (9, 2)) g);
    Alcotest.fail "out-of-range vertex accepted"
  with Invalid_argument _ -> ()

let test_empty_rejected () =
  let g = Gen.path 3 in
  let rng = Rng.of_int 73 in
  try
    ignore (Placement.place rng (Placement.Stationary 0) g);
    Alcotest.fail "zero agents accepted"
  with Invalid_argument _ -> ()

let test_stationary_is_degree_proportional () =
  (* on the star, the center holds half the stationary mass *)
  let g = Gen.star ~leaves:50 in
  let rng = Rng.of_int 74 in
  let total = 40_000 in
  let pos = Placement.place rng (Placement.Stationary total) g in
  let at_center = Array.fold_left (fun acc v -> if v = 0 then acc + 1 else acc) 0 pos in
  let p = float_of_int at_center /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "center mass %.3f near 0.5" p)
    true
    (Float.abs (p -. 0.5) < 0.02)

let test_stationary_on_regular_is_uniform () =
  let g = Gen.cycle 10 in
  let rng = Rng.of_int 75 in
  let total = 50_000 in
  let pos = Placement.place rng (Placement.Stationary total) g in
  let counts = Array.make 10 0 in
  Array.iter (fun v -> counts.(v) <- counts.(v) + 1) pos;
  Array.iteri
    (fun v c ->
      let p = float_of_int c /. float_of_int total in
      if Float.abs (p -. 0.1) > 0.01 then Alcotest.failf "vertex %d mass %.3f" v p)
    counts

let test_stationary_weights_probabilities () =
  let g = Gen.star ~leaves:3 in
  let alias = Placement.stationary_weights g in
  (* degrees 3,1,1,1; total 6 *)
  Alcotest.(check bool) "center probability" true
    (Float.abs (Rumor_prob.Alias.probability alias 0 -. 0.5) < 1e-9);
  Alcotest.(check bool) "leaf probability" true
    (Float.abs (Rumor_prob.Alias.probability alias 1 -. (1.0 /. 6.0)) < 1e-9)

(* place_counts is the histogram of place on the same rng stream: same
   spec, same seed, identical per-vertex totals — and both leave the
   generator in the same state. *)
let test_place_counts_is_histogram () =
  let g = Gen.star ~leaves:20 in
  List.iter
    (fun spec ->
      let pos = Placement.place (Rng.of_int 76) spec g in
      let rng = Rng.of_int 76 in
      let counts = Placement.place_counts rng spec g in
      let hist = Array.make (Graph.n g) 0 in
      Array.iter (fun v -> hist.(v) <- hist.(v) + 1) pos;
      Alcotest.(check (array int))
        "histogram of place" hist counts;
      (* identical rng consumption: the next draw agrees with a generator
         that ran place on the same seed *)
      let rng' = Rng.of_int 76 in
      ignore (Placement.place rng' spec g);
      Alcotest.(check int) "rng state" (Rng.int rng' 1_000_000)
        (Rng.int rng 1_000_000))
    [
      Placement.Stationary 37;
      Placement.Linear 1.5;
      Placement.One_per_vertex;
      Placement.All_at (3, 5);
    ]

let test_place_counts_invalid () =
  let g = Gen.path 5 in
  (try
     ignore (Placement.place_counts (Rng.of_int 77) (Placement.Stationary 0) g);
     Alcotest.fail "zero agents accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Placement.place_counts (Rng.of_int 77) (Placement.All_at (9, 2)) g);
    Alcotest.fail "out-of-range vertex accepted"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "linear count at the array limit" `Quick
      test_linear_array_limit;
    Alcotest.test_case "one per vertex" `Quick test_one_per_vertex;
    Alcotest.test_case "all at a vertex" `Quick test_all_at;
    Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
    Alcotest.test_case "stationary is degree-proportional" `Quick
      test_stationary_is_degree_proportional;
    Alcotest.test_case "stationary uniform on regular" `Quick
      test_stationary_on_regular_is_uniform;
    Alcotest.test_case "stationary weights exact" `Quick test_stationary_weights_probabilities;
    Alcotest.test_case "place_counts is place histogram" `Quick
      test_place_counts_is_histogram;
    Alcotest.test_case "place_counts invalid args" `Quick test_place_counts_invalid;
  ]
