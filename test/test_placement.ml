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
  (try
     ignore (Placement.place rng (Placement.Stationary 0) g);
     Alcotest.fail "zero agents accepted"
   with Invalid_argument _ -> ());
  (* a graph with no edges has no stationary law *)
  let edgeless = Graph.of_edges ~n:3 [] in
  Alcotest.check_raises "place on an edgeless graph"
    (Invalid_argument
       "Placement.place: stationary placement on a graph with no edges")
    (fun () -> ignore (Placement.place rng (Placement.Stationary 2) edgeless));
  Alcotest.check_raises "place_counts on an edgeless graph"
    (Invalid_argument
       "Placement.place_counts: stationary placement on a graph with no edges")
    (fun () -> ignore (Placement.place_counts rng (Placement.Linear 1.0) edgeless))

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

(* Chi-square of stationary placement against deg v / 2m, vertex by
   vertex, on three graphs whose degrees spread: the star (half the mass
   on the centre), the lollipop (a clique beside a path) and the double
   star.  Family-wise alpha = 10^-3, Bonferroni over the three. *)
let test_stationary_chi2 () =
  let graphs =
    [
      ("star", Gen.star ~leaves:30);
      ("lollipop", Gen.lollipop ~clique_size:8 ~tail_len:12);
      ( "double star",
        (Rumor_graph.Gen_paper.double_star ~leaves_per_star:15).Rumor_graph.Gen_paper.ds_graph
      );
    ]
  in
  let per_test = 1e-3 /. float_of_int (List.length graphs) in
  let agents = 200_000 in
  let rng = Rng.of_int 78 in
  List.iter
    (fun (name, g) ->
      let observed = Array.make (Graph.n g) 0 in
      Array.iter
        (fun v -> observed.(v) <- observed.(v) + 1)
        (Placement.place rng (Placement.Stationary agents) g);
      let two_m = float_of_int (Graph.total_degree g) in
      let expected =
        Array.init (Graph.n g) (fun v ->
            float_of_int agents *. float_of_int (Graph.degree g v) /. two_m)
      in
      let p = Chi2.test observed expected in
      if p < per_test then
        Alcotest.failf "%s: chi2 p = %.3g < %.3g" name p per_test)
    graphs

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

(* A vertex of degree 0 heads no arc, so it never receives a stationary
   agent; the one edge's two endpoints share the mass equally. *)
let test_zero_degree_never_placed () =
  let g = Graph.of_edges ~n:5 [ (1, 3) ] in
  let total = 20_000 in
  List.iter
    (fun spec ->
      let counts = Placement.place_counts (Rng.of_int 79) spec g in
      List.iter
        (fun v -> Alcotest.(check int) (Printf.sprintf "vertex %d empty" v) 0 counts.(v))
        [ 0; 2; 4 ];
      Alcotest.(check int) "every agent placed" total (counts.(1) + counts.(3));
      let p = float_of_int counts.(1) /. float_of_int total in
      Alcotest.(check bool)
        (Printf.sprintf "endpoint mass %.3f near 0.5" p)
        true
        (Float.abs (p -. 0.5) < 0.02))
    [ Placement.Stationary total; Placement.Linear (float_of_int total /. 5.0) ]

(* Value for value, a stationary agent is the head of arc [Rng.int rng
   (2m)], drawn in agent order, and placing consumes exactly one draw per
   agent on these bounds. *)
let test_stationary_reference_draw () =
  List.iter
    (fun (name, g) ->
      let k = 500 in
      let a = Rng.of_int 80 and b = Rng.of_int 80 in
      let arcs = Graph.arc_count g in
      let want = Array.init k (fun _ -> Graph.arc_head g (Rng.int b arcs)) in
      Alcotest.(check (array int)) (name ^ ": positions") want
        (Placement.place a (Placement.Stationary k) g);
      Alcotest.(check int64) (name ^ ": rng state") (Rng.bits64 b) (Rng.bits64 a))
    [
      ("path", Gen.path 2);
      ("star", Gen.star ~leaves:30);
      ("lollipop", Gen.lollipop ~clique_size:7 ~tail_len:9);
      ("torus", Gen.torus ~rows:5 ~cols:7);
    ]

(* [Linear alpha] places alpha * n agents from the same stationary law:
   on the star, half of them on the centre *)
let test_linear_is_stationary () =
  let g = Gen.star ~leaves:50 in
  let pos = Placement.place (Rng.of_int 81) (Placement.Linear 400.0) g in
  Alcotest.(check int) "alpha * n agents" (400 * 51) (Array.length pos);
  let at_center = Array.fold_left (fun acc v -> if v = 0 then acc + 1 else acc) 0 pos in
  let p = float_of_int at_center /. float_of_int (Array.length pos) in
  Alcotest.(check bool)
    (Printf.sprintf "center mass %.3f near 0.5" p)
    true
    (Float.abs (p -. 0.5) < 0.02)

let prop_placed_on_edges =
  QCheck.Test.make ~count:50
    ~name:"stationary agents land only on vertices with an edge"
    QCheck.(triple (int_range 2 40) (int_range 1 60) small_nat)
    (fun (n, m, seed) ->
      let m = min m (n * (n - 1) / 2) in
      let rng = Rng.of_int seed in
      let g = Rumor_graph.Gen_random.gnm rng ~n ~m in
      let k = 1 + (seed mod 97) in
      let counts = Placement.place_counts rng (Placement.Stationary k) g in
      Array.fold_left ( + ) 0 counts = k
      && Array.for_all Fun.id
           (Array.mapi (fun v c -> c = 0 || Graph.degree g v > 0) counts))

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
    Alcotest.test_case "stationary chi2 against deg/2m" `Quick test_stationary_chi2;
    Alcotest.test_case "place_counts is place histogram" `Quick
      test_place_counts_is_histogram;
    Alcotest.test_case "place_counts invalid args" `Quick test_place_counts_invalid;
    Alcotest.test_case "zero-degree vertices never placed" `Quick
      test_zero_degree_never_placed;
    Alcotest.test_case "stationary = head of a uniform arc, same draws" `Quick
      test_stationary_reference_draw;
    Alcotest.test_case "linear placement is stationary" `Quick test_linear_is_stationary;
    QCheck_alcotest.to_alcotest prop_placed_on_edges;
  ]
