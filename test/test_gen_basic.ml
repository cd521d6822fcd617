(* Tests for Rumor_graph.Gen_basic: structural properties of each family. *)

module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Algo = Rumor_graph.Algo

let check_valid_connected g =
  Graph.validate g;
  Alcotest.(check bool) "connected" true (Algo.is_connected g)

let test_complete () =
  let g = Gen.complete 6 in
  check_valid_connected g;
  Alcotest.(check int) "edges" 15 (Graph.num_edges g);
  Alcotest.(check (option int)) "regular n-1" (Some 5) (Graph.regular_degree g);
  Alcotest.(check int) "diameter" 1 (Algo.diameter g)

let test_complete_k1 () =
  let g = Gen.complete 1 in
  Alcotest.(check int) "K1 edges" 0 (Graph.num_edges g)

let test_path () =
  let g = Gen.path 7 in
  check_valid_connected g;
  Alcotest.(check int) "edges" 6 (Graph.num_edges g);
  Alcotest.(check int) "diameter" 6 (Algo.diameter g);
  Alcotest.(check int) "endpoint degree" 1 (Graph.degree g 0);
  Alcotest.(check int) "inner degree" 2 (Graph.degree g 3);
  Alcotest.(check bool) "bipartite" true (Algo.is_bipartite g)

let test_cycle () =
  let even = Gen.cycle 8 in
  check_valid_connected even;
  Alcotest.(check int) "edges" 8 (Graph.num_edges even);
  Alcotest.(check (option int)) "2-regular" (Some 2) (Graph.regular_degree even);
  Alcotest.(check int) "diameter" 4 (Algo.diameter even);
  Alcotest.(check bool) "even cycle bipartite" true (Algo.is_bipartite even);
  let odd = Gen.cycle 7 in
  Alcotest.(check bool) "odd cycle not bipartite" false (Algo.is_bipartite odd)

let test_cycle_too_small () =
  try
    ignore (Gen.cycle 2);
    Alcotest.fail "2-cycle accepted"
  with Invalid_argument _ -> ()

let test_star () =
  let g = Gen.star ~leaves:10 in
  check_valid_connected g;
  Alcotest.(check int) "n" 11 (Graph.n g);
  Alcotest.(check int) "center degree" 10 (Graph.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (Graph.degree g 5);
  Alcotest.(check bool) "bipartite" true (Algo.is_bipartite g);
  Alcotest.(check int) "diameter" 2 (Algo.diameter g)

let test_complete_binary_tree () =
  let g = Gen.complete_binary_tree ~levels:4 in
  check_valid_connected g;
  Alcotest.(check int) "n = 2^4 - 1" 15 (Graph.n g);
  Alcotest.(check int) "edges = n - 1" 14 (Graph.num_edges g);
  Alcotest.(check int) "root degree" 2 (Graph.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (Graph.degree g 14);
  Alcotest.(check int) "internal degree" 3 (Graph.degree g 3);
  Alcotest.(check bool) "tree is bipartite" true (Algo.is_bipartite g)

let test_grid () =
  let g = Gen.grid ~rows:3 ~cols:4 in
  check_valid_connected g;
  Alcotest.(check int) "n" 12 (Graph.n g);
  (* edges: rows*(cols-1) + cols*(rows-1) = 9 + 8 = 17 *)
  Alcotest.(check int) "edges" 17 (Graph.num_edges g);
  Alcotest.(check int) "corner degree" 2 (Graph.degree g 0);
  Alcotest.(check int) "diameter" 5 (Algo.diameter g);
  Alcotest.(check bool) "grid is bipartite" true (Algo.is_bipartite g)

let test_torus () =
  let g = Gen.torus ~rows:4 ~cols:5 in
  check_valid_connected g;
  Alcotest.(check int) "n" 20 (Graph.n g);
  Alcotest.(check (option int)) "4-regular" (Some 4) (Graph.regular_degree g);
  Alcotest.(check int) "edges = 2n" 40 (Graph.num_edges g)

let test_torus_3x3 () =
  (* wrap edges must not collide with grid edges *)
  let g = Gen.torus ~rows:3 ~cols:3 in
  Graph.validate g;
  Alcotest.(check (option int)) "4-regular" (Some 4) (Graph.regular_degree g)

let test_hypercube () =
  let g = Gen.hypercube ~dim:6 in
  check_valid_connected g;
  Alcotest.(check int) "n = 64" 64 (Graph.n g);
  Alcotest.(check (option int)) "6-regular" (Some 6) (Graph.regular_degree g);
  Alcotest.(check int) "edges = n d / 2" 192 (Graph.num_edges g);
  Alcotest.(check int) "diameter = dim" 6 (Algo.diameter g);
  Alcotest.(check bool) "bipartite" true (Algo.is_bipartite g);
  (* neighbors differ in exactly one bit *)
  Graph.iter_edges g (fun u v ->
      let x = u lxor v in
      if x land (x - 1) <> 0 then Alcotest.failf "edge (%d,%d) differs in >1 bit" u v)

let test_necklace () =
  let g = Gen.necklace ~cliques:5 ~clique_size:6 in
  check_valid_connected g;
  Alcotest.(check int) "n" 30 (Graph.n g);
  Alcotest.(check (option int)) "(s-1)-regular" (Some 5) (Graph.regular_degree g);
  (* diameter grows linearly in the number of cliques *)
  Alcotest.(check bool) "long diameter" true (Algo.diameter g >= 5)

let test_necklace_regular_for_many_sizes () =
  List.iter
    (fun (c, s) ->
      let g = Gen.necklace ~cliques:c ~clique_size:s in
      Graph.validate g;
      Alcotest.(check (option int))
        (Printf.sprintf "necklace %dx%d regular" c s)
        (Some (s - 1))
        (Graph.regular_degree g);
      Alcotest.(check bool) "connected" true (Algo.is_connected g))
    [ (3, 4); (4, 5); (10, 8); (16, 16) ]

let test_barbell () =
  let g = Gen.barbell ~clique_size:5 ~bridge_len:3 in
  check_valid_connected g;
  Alcotest.(check int) "n" 13 (Graph.n g);
  (* 2 * C(5,2) + 4 bridge edges *)
  Alcotest.(check int) "edges" 24 (Graph.num_edges g)

let test_barbell_zero_bridge () =
  let g = Gen.barbell ~clique_size:4 ~bridge_len:0 in
  check_valid_connected g;
  Alcotest.(check int) "n" 8 (Graph.n g);
  Alcotest.(check int) "edges" 13 (Graph.num_edges g)

let test_lollipop () =
  let g = Gen.lollipop ~clique_size:5 ~tail_len:4 in
  check_valid_connected g;
  Alcotest.(check int) "n" 9 (Graph.n g);
  Alcotest.(check int) "edges" 14 (Graph.num_edges g);
  Alcotest.(check int) "tail end degree" 1 (Graph.degree g 8)

let test_invalid_sizes () =
  let expect_invalid name f =
    try
      ignore (f ());
      Alcotest.failf "%s accepted" name
    with Invalid_argument _ -> ()
  in
  expect_invalid "complete 0" (fun () -> Gen.complete 0);
  expect_invalid "path 0" (fun () -> Gen.path 0);
  expect_invalid "star 0" (fun () -> Gen.star ~leaves:0);
  expect_invalid "tree levels 0" (fun () -> Gen.complete_binary_tree ~levels:0);
  expect_invalid "grid 0 rows" (fun () -> Gen.grid ~rows:0 ~cols:3);
  expect_invalid "torus 2 rows" (fun () -> Gen.torus ~rows:2 ~cols:5);
  expect_invalid "hypercube dim 0" (fun () -> Gen.hypercube ~dim:0);
  expect_invalid "necklace 2 cliques" (fun () -> Gen.necklace ~cliques:2 ~clique_size:5);
  expect_invalid "necklace tiny cliques" (fun () -> Gen.necklace ~cliques:4 ~clique_size:3);
  expect_invalid "lollipop no tail" (fun () -> Gen.lollipop ~clique_size:4 ~tail_len:0)

(* --- the same graphs as the edge-list generators ---------------------- *)

(* The families as the edge lists they were first built from, in the list
   order those generators produced. *)
module Reference = struct
  let path n = Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))
  let cycle n = Graph.of_edges ~n (List.init n (fun i -> (i, (i + 1) mod n)))

  let star leaves =
    Graph.of_edges ~n:(leaves + 1) (List.init leaves (fun i -> (0, i + 1)))

  let complete_binary_tree levels =
    let n = (1 lsl levels) - 1 in
    let edges = ref [] in
    for i = 1 to n - 1 do
      edges := (i, (i - 1) / 2) :: !edges
    done;
    Graph.of_edges ~n !edges

  let necklace cliques s =
    let edges = ref [] in
    for i = 0 to cliques - 1 do
      let base = i * s in
      for a = 0 to s - 1 do
        for b = a + 1 to s - 1 do
          if not (a = 0 && b = 1) then edges := (base + a, base + b) :: !edges
        done
      done;
      edges := (base + 1, (i + 1) mod cliques * s) :: !edges
    done;
    Graph.of_edges ~n:(cliques * s) !edges

  let clique_edges edges base s =
    for a = 0 to s - 1 do
      for b = a + 1 to s - 1 do
        edges := (base + a, base + b) :: !edges
      done
    done

  (* a path [first] .. [first + len], [len] edges *)
  let path_edges edges first len =
    for i = 0 to len - 1 do
      edges := (first + i, first + i + 1) :: !edges
    done

  let barbell s bridge_len =
    let edges = ref [] in
    clique_edges edges 0 s;
    clique_edges edges (s + bridge_len) s;
    path_edges edges (s - 1) (bridge_len + 1);
    Graph.of_edges ~n:((2 * s) + bridge_len) !edges

  let torus rows cols =
    let id r c = (r * cols) + c in
    let edges = ref [] in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        edges := (id r c, id r ((c + 1) mod cols)) :: !edges;
        edges := (id r c, id ((r + 1) mod rows) c) :: !edges
      done
    done;
    Graph.of_edges ~n:(rows * cols) !edges

  let lollipop s tail_len =
    let edges = ref [] in
    clique_edges edges 0 s;
    path_edges edges (s - 1) tail_len;
    Graph.of_edges ~n:(s + tail_len) !edges
end

let test_same_graphs () =
  let same = Csr_check.same in
  List.iter
    (fun n ->
      same (Printf.sprintf "path %d" n) (Reference.path n) (Gen.path n);
      if n >= 3 then same (Printf.sprintf "cycle %d" n) (Reference.cycle n) (Gen.cycle n);
      same (Printf.sprintf "star %d" n) (Reference.star n) (Gen.star ~leaves:n))
    [ 1; 2; 3; 4; 5; 17; 100 ];
  for levels = 1 to 9 do
    same
      (Printf.sprintf "binary tree %d" levels)
      (Reference.complete_binary_tree levels)
      (Gen.complete_binary_tree ~levels)
  done;
  List.iter
    (fun (c, s) ->
      same
        (Printf.sprintf "necklace %dx%d" c s)
        (Reference.necklace c s)
        (Gen.necklace ~cliques:c ~clique_size:s))
    [ (3, 4); (3, 5); (4, 4); (5, 6); (10, 8); (16, 16) ];
  List.iter
    (fun (s, len) ->
      same
        (Printf.sprintf "barbell %d,%d" s len)
        (Reference.barbell s len)
        (Gen.barbell ~clique_size:s ~bridge_len:len);
      if len >= 1 then
        same
          (Printf.sprintf "lollipop %d,%d" s len)
          (Reference.lollipop s len)
          (Gen.lollipop ~clique_size:s ~tail_len:len))
    [ (2, 0); (2, 1); (3, 0); (3, 2); (5, 3); (8, 1); (12, 20) ];
  List.iter
    (fun (rows, cols) ->
      same
        (Printf.sprintf "torus %dx%d" rows cols)
        (Reference.torus rows cols)
        (Gen.torus ~rows ~cols))
    [ (3, 3); (3, 4); (4, 3); (5, 7); (6, 6) ]

let suite =
  [
    Alcotest.test_case "complete graph" `Quick test_complete;
    Alcotest.test_case "complete K1" `Quick test_complete_k1;
    Alcotest.test_case "path" `Quick test_path;
    Alcotest.test_case "cycle" `Quick test_cycle;
    Alcotest.test_case "cycle too small" `Quick test_cycle_too_small;
    Alcotest.test_case "star" `Quick test_star;
    Alcotest.test_case "complete binary tree" `Quick test_complete_binary_tree;
    Alcotest.test_case "grid" `Quick test_grid;
    Alcotest.test_case "torus" `Quick test_torus;
    Alcotest.test_case "torus 3x3" `Quick test_torus_3x3;
    Alcotest.test_case "hypercube" `Quick test_hypercube;
    Alcotest.test_case "necklace" `Quick test_necklace;
    Alcotest.test_case "necklace regularity sweep" `Quick test_necklace_regular_for_many_sizes;
    Alcotest.test_case "barbell" `Quick test_barbell;
    Alcotest.test_case "barbell, zero bridge" `Quick test_barbell_zero_bridge;
    Alcotest.test_case "lollipop" `Quick test_lollipop;
    Alcotest.test_case "invalid sizes" `Quick test_invalid_sizes;
    Alcotest.test_case "same graphs as the edge-list builds" `Quick test_same_graphs;
  ]
