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

let test_disconnected_rejected () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  try
    ignore (Spectral.spectral_gap g);
    Alcotest.fail "disconnected accepted"
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

(* the lazy chain's Cheeger inequalities, gap <= phi <= 2 sqrt(gap), with
   phi exact on small graphs and the sweep value (an upper bound on phi
   that meets the constructive bound itself) on larger ones *)
let test_cheeger_inequalities () =
  List.iter
    (fun (name, g) ->
      let gap = Spectral.spectral_gap g in
      let phi =
        if Graph.n g <= 16 then Spectral.conductance_exact g
        else Spectral.conductance_sweep g
      in
      Alcotest.(check bool) (name ^ " satisfies Cheeger") true
        (gap <= phi +. 0.05 && phi <= (2.0 *. sqrt gap) +. 0.05))
    [
      ("complete", Gen.complete 8);
      ("cycle", Gen.cycle 12);
      ("star", Gen.star ~leaves:9);
      ("hypercube", Gen.hypercube ~dim:4);
      ("double star", (Gen_paper.double_star ~leaves_per_star:5).Gen_paper.ds_graph);
      ("necklace", Gen.necklace ~cliques:3 ~clique_size:4);
    ]

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

let test_path_and_star_gaps () =
  (* P_n: walk eigenvalues cos(pi k / (n-1)); lazy gap (1 - cos(pi / (n-1))) / 2 *)
  let n = 8 in
  let expected = (1.0 -. cos (Float.pi /. float_of_int (n - 1))) /. 2.0 in
  check ~tol:1e-4 "P8 gap" expected (Spectral.spectral_gap ~iterations:2000 (Gen.path n));
  (* the star's walk eigenvalues are 1, 0 and -1: lazy gap 1/2, whatever
     its size *)
  List.iter
    (fun leaves ->
      check (Printf.sprintf "star %d gap" leaves) 0.5 (Spectral.spectral_gap (Gen.star ~leaves)))
    [ 3; 9; 40 ]

let suite =
  [
    Alcotest.test_case "complete graph gap" `Quick test_complete_gap;
    Alcotest.test_case "gap allocation flat in iterations" `Quick test_gap_allocation_flat;
    Alcotest.test_case "cycle gap" `Quick test_cycle_gap;
    Alcotest.test_case "hypercube gap" `Quick test_hypercube_gap;
    Alcotest.test_case "disconnected rejected" `Quick test_disconnected_rejected;
    Alcotest.test_case "exact conductance of K4" `Quick test_conductance_exact_complete;
    Alcotest.test_case "exact conductance of C8" `Quick test_conductance_exact_cycle;
    Alcotest.test_case "exact conductance of the double star" `Quick
      test_conductance_exact_double_star;
    Alcotest.test_case "exact conductance guard" `Quick test_conductance_exact_guard;
    Alcotest.test_case "sweep upper-bounds exact" `Quick test_sweep_upper_bounds_exact;
    Alcotest.test_case "sweep finds bottlenecks" `Quick test_sweep_finds_bottlenecks;
    Alcotest.test_case "Cheeger inequalities" `Quick test_cheeger_inequalities;
    Alcotest.test_case "gap orders families" `Quick test_gap_orders_families;
    Alcotest.test_case "path and star gaps" `Quick test_path_and_star_gaps;
  ]
