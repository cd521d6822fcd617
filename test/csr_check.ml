(* [same label expected actual] checks that both graphs pass Graph.validate
   and that [actual] is exactly [expected]'s CSR: the same vertex count,
   degrees and neighbour order.  The Builder and generator tests compare
   against graphs rebuilt from plain edge lists through Graph.of_edges. *)

module Graph = Rumor_graph.Graph

let neighbours g u = List.init (Graph.degree g u) (Graph.neighbor g u)

let same label expected actual =
  Graph.validate expected;
  Graph.validate actual;
  Alcotest.(check int) (label ^ ": n") (Graph.n expected) (Graph.n actual);
  Alcotest.(check int) (label ^ ": m") (Graph.num_edges expected) (Graph.num_edges actual);
  for u = 0 to Graph.n expected - 1 do
    if neighbours expected u <> neighbours actual u then
      Alcotest.failf "%s: neighbours of %d differ" label u
  done
