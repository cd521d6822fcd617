(* Tests for Rumor_graph.Algo. *)

module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Algo = Rumor_graph.Algo

let test_bfs_on_path () =
  let g = Gen.path 5 in
  Alcotest.(check (array int)) "from endpoint" [| 0; 1; 2; 3; 4 |] (Algo.bfs_distances g 0);
  Alcotest.(check (array int)) "from middle" [| 2; 1; 0; 1; 2 |] (Algo.bfs_distances g 2)

let test_bfs_on_cycle () =
  let g = Gen.cycle 6 in
  Alcotest.(check (array int)) "wraps both ways" [| 0; 1; 2; 3; 2; 1 |]
    (Algo.bfs_distances g 0)

let test_bfs_unreachable () =
  let g = Graph.of_edges ~n:4 [ (0, 1) ] in
  let d = Algo.bfs_distances g 0 in
  Alcotest.(check int) "reachable" 1 d.(1);
  Alcotest.(check int) "unreachable marked -1" (-1) d.(2)

let test_bfs_bad_source () =
  let g = Gen.path 3 in
  try
    ignore (Algo.bfs_distances g 5);
    Alcotest.fail "bad source accepted"
  with Invalid_argument _ -> ()

let test_components () =
  let g = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  Alcotest.(check int) "three components" 3 (Algo.component_count g);
  let labels = Algo.components g in
  Alcotest.(check int) "0 and 2 together" labels.(0) labels.(2);
  Alcotest.(check bool) "0 and 3 apart" true (labels.(0) <> labels.(3));
  Alcotest.(check bool) "5 isolated" true (labels.(5) <> labels.(4));
  Alcotest.(check bool) "not connected" false (Algo.is_connected g)

let test_connected_trivial () =
  Alcotest.(check bool) "single vertex" true (Algo.is_connected (Graph.of_edges ~n:1 []))

(* [is_connected] is one BFS from vertex 0; it must agree with the
   component labelling, under which the empty graph has no component and
   still counts as connected *)
let test_connected_agrees_with_components () =
  let agrees label g =
    Alcotest.(check bool) label
      (Graph.n g <= 1 || Algo.component_count g = 1)
      (Algo.is_connected g)
  in
  let empty = Graph.of_edges ~n:0 [] in
  Alcotest.(check int) "n = 0: no component" 0 (Algo.component_count empty);
  Alcotest.(check bool) "n = 0: connected" true (Algo.is_connected empty);
  agrees "n = 1" (Graph.of_edges ~n:1 []);
  agrees "isolated vertex 0" (Graph.of_edges ~n:4 [ (1, 2); (2, 3) ]);
  agrees "isolated last vertex" (Graph.of_edges ~n:4 [ (0, 1); (1, 2) ]);
  agrees "two isolated vertices" (Graph.of_edges ~n:2 []);
  agrees "two components" (Graph.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4); (4, 5) ]);
  agrees "path" (Gen.path 9);
  let rng = Rumor_prob.Rng.of_int 23 in
  let connected = ref 0 and total = ref 0 in
  for n = 2 to 40 do
    (* m around (n ln n) / 2, where connectivity comes and goes *)
    List.iter
      (fun m ->
        let m = min m (n * (n - 1) / 2) in
        let g = Rumor_graph.Gen_random.gnm rng ~n ~m in
        agrees (Printf.sprintf "gnm n=%d m=%d" n m) g;
        incr total;
        if Algo.is_connected g then incr connected)
      [ n / 2; n; int_of_float (float_of_int n *. log (float_of_int n) /. 2.0); 2 * n ]
  done;
  Alcotest.(check bool)
    (Printf.sprintf "both outcomes seen (%d of %d connected)" !connected !total)
    true
    (!connected > 0 && !connected < !total)

let test_eccentricity () =
  let g = Gen.path 7 in
  Alcotest.(check int) "endpoint" 6 (Algo.eccentricity g 0);
  Alcotest.(check int) "center" 3 (Algo.eccentricity g 3)

let test_eccentricity_disconnected () =
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  try
    ignore (Algo.eccentricity g 0);
    Alcotest.fail "disconnected accepted"
  with Invalid_argument _ -> ()

let test_diameter () =
  Alcotest.(check int) "path" 5 (Algo.diameter (Gen.path 6));
  Alcotest.(check int) "cycle" 3 (Algo.diameter (Gen.cycle 7));
  Alcotest.(check int) "complete" 1 (Algo.diameter (Gen.complete 5));
  Alcotest.(check int) "star" 2 (Algo.diameter (Gen.star ~leaves:9))

let test_diameter_lower_bound () =
  (* double sweep is exact on trees *)
  let t = Gen.complete_binary_tree ~levels:5 in
  Alcotest.(check int) "exact on tree" (Algo.diameter t) (Algo.diameter_lower_bound t);
  let g = Gen.torus ~rows:5 ~cols:5 in
  Alcotest.(check bool) "lower bound holds" true
    (Algo.diameter_lower_bound g <= Algo.diameter g)

let test_bipartite () =
  Alcotest.(check bool) "path" true (Algo.is_bipartite (Gen.path 4));
  Alcotest.(check bool) "even cycle" true (Algo.is_bipartite (Gen.cycle 8));
  Alcotest.(check bool) "odd cycle" false (Algo.is_bipartite (Gen.cycle 9));
  Alcotest.(check bool) "triangle" false (Algo.is_bipartite (Gen.complete 3));
  Alcotest.(check bool) "K2" true (Algo.is_bipartite (Gen.complete 2));
  (* disconnected: bipartite iff every component is *)
  let g = Graph.of_edges ~n:6 [ (0, 1); (2, 3); (3, 4); (2, 4) ] in
  Alcotest.(check bool) "component with triangle" false (Algo.is_bipartite g)

let test_degree_histogram () =
  let g = Gen.star ~leaves:4 in
  Alcotest.(check (list (pair int int))) "star histogram" [ (1, 4); (4, 1) ]
    (Algo.degree_histogram g)

let prop_bfs_distances_are_metric_like =
  QCheck.Test.make ~count:30 ~name:"bfs distances satisfy edge-Lipschitz"
    QCheck.(int_range 5 50)
    (fun n ->
      let rng = Rumor_prob.Rng.of_int (n * 17) in
      let g = Rumor_graph.Gen_random.random_regular_connected rng ~n:(n * 2) ~d:3 in
      let dist = Algo.bfs_distances g 0 in
      let ok = ref true in
      Graph.iter_edges g (fun u v -> if abs (dist.(u) - dist.(v)) > 1 then ok := false);
      !ok)

let suite =
  [
    Alcotest.test_case "bfs on path" `Quick test_bfs_on_path;
    Alcotest.test_case "bfs on cycle" `Quick test_bfs_on_cycle;
    Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
    Alcotest.test_case "bfs bad source" `Quick test_bfs_bad_source;
    Alcotest.test_case "components" `Quick test_components;
    Alcotest.test_case "connected trivial" `Quick test_connected_trivial;
    Alcotest.test_case "is_connected = one component" `Quick
      test_connected_agrees_with_components;
    Alcotest.test_case "eccentricity" `Quick test_eccentricity;
    Alcotest.test_case "eccentricity disconnected" `Quick test_eccentricity_disconnected;
    Alcotest.test_case "diameter" `Quick test_diameter;
    Alcotest.test_case "diameter lower bound" `Quick test_diameter_lower_bound;
    Alcotest.test_case "bipartiteness" `Quick test_bipartite;
    Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
    QCheck_alcotest.to_alcotest prop_bfs_distances_are_metric_like;
  ]
