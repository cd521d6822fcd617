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

(* [is_connected] searches from vertex 0; it must agree with the
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

(* [is_connected] changes direction once its frontier is wide: bottom-up
   sweeps over the unseen vertices, each stopping at its first seen
   neighbour, then top-down search again.  Fixed shapes: long thin ones
   that stay top-down (a path whose ids run backwards along it, a star),
   wide ones that sweep (cliques, G(n, p) on either side of the
   connectivity threshold ln n / n), isolated vertices, and the smallest
   n.  Each answer is pinned and must match the component count. *)
let test_connected_fixed_shapes () =
  let check label want g =
    (* the empty graph has no component and still counts as connected *)
    Alcotest.(check bool) (label ^ ": one component") want
      (Graph.n g = 0 || Algo.component_count g = 1);
    Alcotest.(check bool) label want (Algo.is_connected g)
  in
  let n = 10_000 in
  (* 0 at one end, then n-1, n-2, ..., 1 *)
  let id k = if k = 0 then 0 else n - k in
  let backwards = List.init (n - 1) (fun k -> (id k, id (k + 1))) in
  check "backwards path" true (Graph.of_edges ~n backwards);
  check "backwards path, middle edge cut" false
    (Graph.of_edges ~n (List.filteri (fun k _ -> k <> n / 2) backwards));
  let clique ids =
    List.concat_map (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) ids) ids
  in
  (* K_40 on the even ids and K_40 on the odd ids *)
  let evens = List.init 40 (fun k -> 2 * k) and odds = List.init 40 (fun k -> (2 * k) + 1) in
  let two = clique evens @ clique odds in
  check "two cliques joined by one edge" true (Graph.of_edges ~n:80 ((77, 78) :: two));
  check "two cliques" false (Graph.of_edges ~n:80 two);
  check "clique plus an isolated last vertex" false
    (Graph.of_edges ~n:41 (clique (List.init 40 Fun.id)));
  check "star" true (Gen.star ~leaves:500);
  check "star centred at the last vertex" true
    (Graph.of_edges ~n:501 (List.init 500 (fun k -> (k, 500))));
  check "n = 0" true (Graph.of_edges ~n:0 []);
  check "n = 1" true (Graph.of_edges ~n:1 []);
  check "n = 2, no edge" false (Graph.of_edges ~n:2 []);
  check "n = 2, one edge" true (Graph.of_edges ~n:2 [ (0, 1) ]);
  let gnp seed c =
    let nf = float_of_int n in
    Rumor_graph.Gen_random.erdos_renyi (Rumor_prob.Rng.of_int seed) ~n
      ~p:(c *. log nf /. nf)
  in
  check "G(1e4, 1.25 ln n / n)" true (gnp 1 1.25);
  check "G(1e4, 0.5 ln n / n)" false (gnp 2 0.5);
  (* two G(5000, p) above the threshold, on the even and the odd ids:
     the sweeps run, and the last sees nothing *)
  let halves =
    List.concat_map
      (fun side ->
        let h = Rumor_graph.Gen_random.erdos_renyi (Rumor_prob.Rng.of_int (3 + side)) ~n:5000
            ~p:(2.0 *. log 5000.0 /. 5000.0)
        in
        let edges = ref [] in
        Graph.iter_edges h (fun u v -> edges := ((2 * u) + side, (2 * v) + side) :: !edges);
        !edges)
      [ 0; 1 ]
  in
  check "two G(5000, p) interleaved" false (Graph.of_edges ~n halves);
  check "two G(5000, p) interleaved, joined by one edge" true
    (Graph.of_edges ~n ((n - 2, n - 1) :: halves))

(* Random graphs from nearly empty to dense: [density] below 80 takes p up
   to twice the threshold ln n / n, above it up to 1.  [shape] 0 keeps the
   sample, 1 cuts every edge at up to three random vertices, and 2 gives
   each isolated vertex an edge to a random one, so that none is left. *)
let prop_connected_iff_one_component =
  QCheck.Test.make ~count:400 ~name:"is_connected = (component_count = 1) on G(n, p)"
    QCheck.(quad (int_range 2 400) (int_range 0 99) (int_range 0 2) (int_range 0 1_000_000))
    (fun (n, density, shape, seed) ->
      let rng = Rumor_prob.Rng.of_int seed in
      let nf = float_of_int n in
      let p =
        if density < 80 then Float.min 1.0 (float_of_int density /. 40.0 *. log nf /. nf)
        else float_of_int (density - 79) /. 20.0
      in
      let g = Rumor_graph.Gen_random.erdos_renyi rng ~n ~p in
      let edges = ref [] in
      Graph.iter_edges g (fun u v -> edges := (u, v) :: !edges);
      let g =
        match shape with
        | 0 -> g
        | 1 ->
            let cut = List.init 3 (fun _ -> Rumor_prob.Rng.int rng n) in
            Graph.of_edges ~n
              (List.filter (fun (u, v) -> not (List.mem u cut || List.mem v cut)) !edges)
        | _ ->
            let extra = ref [] in
            for v = 0 to n - 1 do
              if Graph.degree g v = 0 then begin
                let w = (v + 1 + Rumor_prob.Rng.int rng (n - 1)) mod n in
                extra := (min v w, max v w) :: !extra
              end
            done;
            let key (u, v) = (u * n) + v in
            Graph.of_edges ~n
              (List.sort_uniq (fun e f -> Int.compare (key e) (key f)) (!edges @ !extra))
      in
      Algo.is_connected g = (Algo.component_count g = 1))

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

(* the labelling against its definition on sparse G(n, p): two vertices
   share a label iff a BFS from one reaches the other, and labels are
   0, 1, ... in the order their first vertex appears *)
let prop_components_definition =
  QCheck.Test.make ~count:200 ~name:"components = BFS reachability, labels in order"
    QCheck.(triple (int_range 1 60) (int_range 0 30) (int_range 0 1_000_000))
    (fun (n, density, seed) ->
      let rng = Rumor_prob.Rng.of_int seed in
      let p = Float.min 1.0 (float_of_int density /. 10.0 /. float_of_int n) in
      let g = Rumor_graph.Gen_random.erdos_renyi rng ~n ~p in
      let labels = Algo.components g in
      let next = ref 0 and ok = ref true in
      for u = 0 to n - 1 do
        if labels.(u) = !next then incr next
        else if labels.(u) > !next then ok := false;
        let dist = Algo.bfs_distances g u in
        for v = 0 to n - 1 do
          if labels.(u) = labels.(v) <> (dist.(v) >= 0) then ok := false
        done
      done;
      !ok && !next = Algo.component_count g)

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
    Alcotest.test_case "is_connected on fixed shapes" `Quick test_connected_fixed_shapes;
    QCheck_alcotest.to_alcotest prop_connected_iff_one_component;
    Alcotest.test_case "eccentricity" `Quick test_eccentricity;
    Alcotest.test_case "eccentricity disconnected" `Quick test_eccentricity_disconnected;
    Alcotest.test_case "diameter" `Quick test_diameter;
    Alcotest.test_case "diameter lower bound" `Quick test_diameter_lower_bound;
    Alcotest.test_case "bipartiteness" `Quick test_bipartite;
    Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
    QCheck_alcotest.to_alcotest prop_bfs_distances_are_metric_like;
    QCheck_alcotest.to_alcotest prop_components_definition;
  ]
