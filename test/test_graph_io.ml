(* Tests for Rumor_graph.Graph_io. *)

module Graph = Rumor_graph.Graph
module Io = Rumor_graph.Graph_io

let test_format_shape () =
  let g = Graph.of_edges ~n:3 [ (0, 2) ] in
  Alcotest.(check string) "exact text" "n 3\n0 2\n" (Io.to_edge_list g)

let test_dot_output () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let dot = Io.to_dot ~name:"demo" g in
  Alcotest.(check bool) "header" true (String.length dot > 0 && String.sub dot 0 10 = "graph demo");
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "edge 0--1" true (contains "0 -- 1;" dot);
  Alcotest.(check bool) "edge 1--2" true (contains "1 -- 2;" dot)

(* edges come out once each, as [u v] with [u < v], in sorted order,
   whatever order and orientation they went in *)
let test_edge_list_sorted () =
  let g = Graph.of_edges ~n:5 [ (4, 2); (1, 0); (3, 1); (0, 4); (2, 0) ] in
  Alcotest.(check string) "sorted pairs" "n 5\n0 1\n0 2\n0 4\n1 3\n2 4\n"
    (Io.to_edge_list g)

let test_edgeless () =
  let g = Graph.of_edges ~n:4 [] in
  Alcotest.(check string) "edge list is the header" "n 4\n" (Io.to_edge_list g);
  Alcotest.(check string) "dot, default name" "graph g {\n}\n" (Io.to_dot g)

let suite =
  [
    Alcotest.test_case "format shape" `Quick test_format_shape;
    Alcotest.test_case "dot output" `Quick test_dot_output;
    Alcotest.test_case "edge list sorted" `Quick test_edge_list_sorted;
    Alcotest.test_case "edgeless graph" `Quick test_edgeless;
  ]
