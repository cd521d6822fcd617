(* Tests for Rumor_graph.Spectral against closed-form spectra. *)

module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Gen_paper = Rumor_graph.Gen_paper
module Spectral = Rumor_graph.Spectral

let check ?(tol = 1e-3) label expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: %.6f, want %.6f" label actual expected

let test_complete_gap () =
  (* K_n: walk eigenvalues are 1 and -1/(n-1); the lazy second eigenvalue is
     (1 - 1/(n-1)) / 2, so the gap is (1 + 1/(n-1)) / 2 *)
  let n = 6 in
  let g = Gen.complete n in
  let expected = (1.0 +. (1.0 /. float_of_int (n - 1))) /. 2.0 in
  check "K6 gap" expected (Spectral.spectral_gap g)

let test_cycle_gap () =
  (* C_n: second eigenvalue cos(2 pi / n); lazy gap (1 - cos(2 pi / n)) / 2 *)
  let n = 8 in
  let g = Gen.cycle n in
  let expected = (1.0 -. cos (2.0 *. Float.pi /. float_of_int n)) /. 2.0 in
  check ~tol:1e-4 "C8 gap" expected (Spectral.spectral_gap ~iterations:2000 g)

let test_hypercube_gap () =
  (* Q_d: walk eigenvalues 1 - 2k/d; second is 1 - 2/d; lazy gap 1/d *)
  let d = 5 in
  let g = Gen.hypercube ~dim:d in
  check ~tol:1e-3 "Q5 gap" (1.0 /. float_of_int d) (Spectral.spectral_gap ~iterations:2000 g)

let test_relaxation_time () =
  let g = Gen.complete 5 in
  let gap = Spectral.spectral_gap g in
  check "relaxation" (1.0 /. gap) (Spectral.relaxation_time g)

let test_disconnected_rejected () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  try
    ignore (Spectral.spectral_gap g);
    Alcotest.fail "disconnected accepted"
  with Invalid_argument _ -> ()

let test_cut_conductance () =
  let g = Gen.cycle 8 in
  let side = Array.init 8 (fun v -> v < 4) in
  (* contiguous half of a cycle: 2 cut edges, volume 8 each side *)
  check "cycle half" 0.25 (Spectral.cut_conductance g side);
  let singleton = Array.init 8 (fun v -> v = 0) in
  check "singleton" 1.0 (Spectral.cut_conductance g singleton)

let test_cut_conductance_empty_side () =
  let g = Gen.cycle 5 in
  try
    ignore (Spectral.cut_conductance g (Array.make 5 false));
    Alcotest.fail "empty side accepted"
  with Invalid_argument _ -> ()

let test_conductance_exact_complete () =
  (* K_4: the best cut is the balanced one: 4 edges / volume 6 = 2/3 *)
  check "K4" (2.0 /. 3.0) (Spectral.conductance_exact (Gen.complete 4))

let test_conductance_exact_cycle () =
  check "C8" 0.25 (Spectral.conductance_exact (Gen.cycle 8))

let test_conductance_exact_double_star () =
  (* the bridge is the bottleneck: 1 cut edge over one star's volume *)
  let ds = Gen_paper.double_star ~leaves_per_star:4 in
  check "double star" (1.0 /. 9.0) (Spectral.conductance_exact ds.Gen_paper.ds_graph)

let test_conductance_exact_guard () =
  try
    ignore (Spectral.conductance_exact ~max_n:10 (Gen.cycle 12));
    Alcotest.fail "guard not applied"
  with Invalid_argument _ -> ()

let test_sweep_upper_bounds_exact () =
  List.iter
    (fun (name, g) ->
      let exact = Spectral.conductance_exact g in
      let sweep = Spectral.conductance_sweep ~iterations:2000 g in
      if sweep < exact -. 1e-9 then
        Alcotest.failf "%s: sweep %.4f below exact %.4f" name sweep exact)
    [
      ("cycle", Gen.cycle 10);
      ("complete", Gen.complete 8);
      ("path", Gen.path 9);
      ("double star", (Gen_paper.double_star ~leaves_per_star:4).Gen_paper.ds_graph);
    ]

let test_sweep_finds_bottlenecks () =
  (* on bottleneck graphs the sweep cut recovers the exact conductance *)
  List.iter
    (fun (name, g) ->
      let exact = Spectral.conductance_exact g in
      let sweep = Spectral.conductance_sweep ~iterations:3000 g in
      check ~tol:1e-6 name exact sweep)
    [
      ("double star", (Gen_paper.double_star ~leaves_per_star:4).Gen_paper.ds_graph);
      ("path", Gen.path 10);
      ("barbell", Gen.barbell ~clique_size:4 ~bridge_len:1);
    ]

let test_cheeger_inequalities () =
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) (name ^ " satisfies Cheeger") true (Spectral.cheeger_check g))
    [
      ("complete", Gen.complete 8);
      ("cycle", Gen.cycle 12);
      ("star", Gen.star ~leaves:9);
      ("hypercube", Gen.hypercube ~dim:4);
      ("double star", (Gen_paper.double_star ~leaves_per_star:5).Gen_paper.ds_graph);
      ("necklace", Gen.necklace ~cliques:3 ~clique_size:4);
    ]

let test_vertex_expansion_complete () =
  (* K_n: any S of size s <= n/2 has boundary n - s, so the minimum is at
     s = n/2: h = (n - n/2) / (n/2) = 1 for even n *)
  check "K6 expansion" 1.0 (Spectral.vertex_expansion_exact (Gen.complete 6))

let test_vertex_expansion_star () =
  (* the star with l leaves: S = half the leaves has boundary {center}:
     h = 1 / floor((l+1)/2) *)
  let l = 9 in
  let g = Gen.star ~leaves:l in
  check "star expansion" (1.0 /. 5.0) (Spectral.vertex_expansion_exact g)

let test_vertex_expansion_path () =
  (* a half-path has a single boundary vertex *)
  let g = Gen.path 8 in
  check "path expansion" 0.25 (Spectral.vertex_expansion_exact g)

let test_vertex_expansion_guard () =
  try
    ignore (Spectral.vertex_expansion_exact ~max_n:10 (Gen.cycle 12));
    Alcotest.fail "guard not applied"
  with Invalid_argument _ -> ()

let test_gap_orders_families () =
  (* the clique mixes faster than the cycle of the same size *)
  let fast = Spectral.spectral_gap (Gen.complete 16) in
  let slow = Spectral.spectral_gap ~iterations:2000 (Gen.cycle 16) in
  Alcotest.(check bool)
    (Printf.sprintf "K16 gap %.3f > C16 gap %.3f" fast slow)
    true (fast > slow)

(* R6 runs thousands of power iterations a graph.  The neighbour sums and
   the inner products keep their floats unboxed, so one spectral_gap call
   allocates the same words however many iterations it runs: its vectors
   and weights, nothing per iteration or per arc. *)
let test_gap_allocation_flat () =
  let g = Gen.torus ~rows:16 ~cols:16 in
  let words iterations =
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (Spectral.spectral_gap ~iterations g));
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  let few = words 10 and many = words 1000 in
  if many > few then Alcotest.failf "%.0f words at 10 iterations, %.0f at 1000" few many

let suite =
  [
    Alcotest.test_case "complete graph gap" `Quick test_complete_gap;
    Alcotest.test_case "gap allocation flat in iterations" `Quick test_gap_allocation_flat;
    Alcotest.test_case "cycle gap" `Quick test_cycle_gap;
    Alcotest.test_case "hypercube gap" `Quick test_hypercube_gap;
    Alcotest.test_case "relaxation time" `Quick test_relaxation_time;
    Alcotest.test_case "disconnected rejected" `Quick test_disconnected_rejected;
    Alcotest.test_case "cut conductance" `Quick test_cut_conductance;
    Alcotest.test_case "empty side rejected" `Quick test_cut_conductance_empty_side;
    Alcotest.test_case "exact conductance of K4" `Quick test_conductance_exact_complete;
    Alcotest.test_case "exact conductance of C8" `Quick test_conductance_exact_cycle;
    Alcotest.test_case "exact conductance of the double star" `Quick
      test_conductance_exact_double_star;
    Alcotest.test_case "exact conductance guard" `Quick test_conductance_exact_guard;
    Alcotest.test_case "sweep upper-bounds exact" `Quick test_sweep_upper_bounds_exact;
    Alcotest.test_case "sweep finds bottlenecks" `Quick test_sweep_finds_bottlenecks;
    Alcotest.test_case "Cheeger inequalities" `Quick test_cheeger_inequalities;
    Alcotest.test_case "vertex expansion of K6" `Quick test_vertex_expansion_complete;
    Alcotest.test_case "vertex expansion of the star" `Quick test_vertex_expansion_star;
    Alcotest.test_case "vertex expansion of the path" `Quick test_vertex_expansion_path;
    Alcotest.test_case "vertex expansion guard" `Quick test_vertex_expansion_guard;
    Alcotest.test_case "gap orders families" `Quick test_gap_orders_families;
  ]
