(* Tests for Rumor_graph.Gen_paper: the Figure 1 families have exactly the
   structure the paper's lemmas assume. *)

module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_paper
module Algo = Rumor_graph.Algo

let test_double_star_structure () =
  let ds = Gen.double_star ~leaves_per_star:10 in
  let g = ds.Gen.ds_graph in
  Graph.validate g;
  Alcotest.(check bool) "connected" true (Algo.is_connected g);
  Alcotest.(check int) "n = 2(l+1)" 22 (Graph.n g);
  Alcotest.(check int) "edges = 2l + 1" 21 (Graph.num_edges g);
  Alcotest.(check int) "center a degree = l + 1" 11 (Graph.degree g ds.Gen.ds_center_a);
  Alcotest.(check int) "center b degree = l + 1" 11 (Graph.degree g ds.Gen.ds_center_b);
  Alcotest.(check bool) "bridge edge present" true
    (Graph.mem_edge g ds.Gen.ds_center_a ds.Gen.ds_center_b);
  Alcotest.(check int) "leaf degree" 1 (Graph.degree g ds.Gen.ds_leaf_a);
  Alcotest.(check bool) "leaf attached to center a" true
    (Graph.mem_edge g ds.Gen.ds_leaf_a ds.Gen.ds_center_a);
  Alcotest.(check bool) "double star is bipartite" true (Algo.is_bipartite g)

let test_double_star_diameter () =
  let ds = Gen.double_star ~leaves_per_star:5 in
  Alcotest.(check int) "leaf-to-leaf across" 3 (Algo.diameter ds.Gen.ds_graph)

let test_heavy_tree_structure () =
  let levels = 5 in
  let ht = Gen.heavy_binary_tree ~levels in
  let g = ht.Gen.ht_graph in
  Graph.validate g;
  Alcotest.(check bool) "connected" true (Algo.is_connected g);
  let n = (1 lsl levels) - 1 in
  let leaves = 1 lsl (levels - 1) in
  Alcotest.(check int) "n = 2^levels - 1" n (Graph.n g);
  Alcotest.(check int) "leaf count" leaves ht.Gen.ht_leaf_count;
  Alcotest.(check int) "first leaf index" (leaves - 1) ht.Gen.ht_first_leaf;
  (* edges: n-1 tree edges + C(leaves, 2) clique edges *)
  Alcotest.(check int) "edge count"
    (n - 1 + (leaves * (leaves - 1) / 2))
    (Graph.num_edges g);
  Alcotest.(check int) "root degree" 2 (Graph.degree g ht.Gen.ht_root);
  (* a leaf connects to its parent and to every other leaf *)
  Alcotest.(check int) "leaf degree" leaves (Graph.degree g ht.Gen.ht_first_leaf);
  (* leaves form a clique *)
  for a = ht.Gen.ht_first_leaf to n - 1 do
    for b = a + 1 to n - 1 do
      if not (Graph.mem_edge g a b) then Alcotest.failf "leaves %d,%d not adjacent" a b
    done
  done

let test_heavy_tree_volume_concentration () =
  (* Lemma 4(b)'s engine: nearly all stationary mass sits on the leaves *)
  let ht = Gen.heavy_binary_tree ~levels:8 in
  let g = ht.Gen.ht_graph in
  let total = float_of_int (Graph.total_degree g) in
  let leaf_mass = ref 0 in
  for v = ht.Gen.ht_first_leaf to Graph.n g - 1 do
    leaf_mass := !leaf_mass + Graph.degree g v
  done;
  let frac = float_of_int !leaf_mass /. total in
  Alcotest.(check bool)
    (Printf.sprintf "leaf volume fraction %.3f > 0.95" frac)
    true (frac > 0.95)

let test_siamese_structure () =
  let levels = 5 in
  let si = Gen.siamese_heavy_tree ~levels in
  let g = si.Gen.si_graph in
  Graph.validate g;
  Alcotest.(check bool) "connected" true (Algo.is_connected g);
  let n1 = (1 lsl levels) - 1 in
  Alcotest.(check int) "n = 2 * n1 - 1" ((2 * n1) - 1) (Graph.n g);
  Alcotest.(check int) "shared root degree 4" 4 (Graph.degree g si.Gen.si_root);
  Alcotest.(check bool) "left leaf in left tree clique" true
    (Graph.degree g si.Gen.si_leaf_left = 1 lsl (levels - 1));
  Alcotest.(check bool) "right leaf same degree" true
    (Graph.degree g si.Gen.si_leaf_right = 1 lsl (levels - 1));
  (* left and right leaves are far apart (through the root) *)
  let dist = (Algo.bfs_distances g si.Gen.si_leaf_left).(si.Gen.si_leaf_right) in
  Alcotest.(check int) "leaf-to-leaf distance crosses both trees"
    (2 * (levels - 1))
    dist

let test_siamese_two_cliques_disjoint () =
  let si = Gen.siamese_heavy_tree ~levels:4 in
  let g = si.Gen.si_graph in
  Alcotest.(check bool) "left and right leaves not adjacent" false
    (Graph.mem_edge g si.Gen.si_leaf_left si.Gen.si_leaf_right)

let test_csc_structure () =
  let k = 5 in
  let csc = Gen.cycle_stars_cliques ~k in
  let g = csc.Gen.csc_graph in
  Graph.validate g;
  Alcotest.(check bool) "connected" true (Algo.is_connected g);
  Alcotest.(check int) "n = k + k^2 + k^3" (k + (k * k) + (k * k * k)) (Graph.n g);
  Alcotest.(check int) "k recorded" k csc.Gen.csc_k;
  (* ring vertices: 2 ring edges + k star leaves *)
  Array.iter
    (fun c ->
      Alcotest.(check int) "ring degree = k + 2" (k + 2) (Graph.degree g c))
    csc.Gen.csc_ring;
  (* the ring is a cycle *)
  let len = Array.length csc.Gen.csc_ring in
  for i = 0 to len - 1 do
    let a = csc.Gen.csc_ring.(i) and b = csc.Gen.csc_ring.((i + 1) mod len) in
    if not (Graph.mem_edge g a b) then Alcotest.failf "ring edge %d-%d missing" a b
  done;
  (* a clique vertex: k-1 clique neighbors + its star leaf *)
  Alcotest.(check int) "clique vertex degree = k" k
    (Graph.degree g csc.Gen.csc_a_clique_vertex)

let test_csc_nearly_regular () =
  (* degrees take only three values: k (clique vertices), k+1 (star leaves),
     k+2 (ring) — the "(almost) regular" remark before Lemma 9 *)
  let k = 6 in
  let csc = Gen.cycle_stars_cliques ~k in
  let hist = Algo.degree_histogram csc.Gen.csc_graph in
  let degs = List.map fst hist in
  Alcotest.(check (list int)) "degree support" [ k; k + 1; k + 2 ] degs;
  let count_of d = List.assoc d hist in
  Alcotest.(check int) "k^3 clique vertices" (k * k * k) (count_of k);
  Alcotest.(check int) "k^2 star leaves" (k * k) (count_of (k + 1));
  Alcotest.(check int) "k ring vertices" k (count_of (k + 2))

let test_invalid_sizes () =
  let expect_invalid name f =
    try
      ignore (f ());
      Alcotest.failf "%s accepted" name
    with Invalid_argument _ -> ()
  in
  expect_invalid "double star 0 leaves" (fun () -> Gen.double_star ~leaves_per_star:0);
  expect_invalid "heavy tree 1 level" (fun () -> Gen.heavy_binary_tree ~levels:1);
  expect_invalid "siamese 1 level" (fun () -> Gen.siamese_heavy_tree ~levels:1);
  expect_invalid "csc k=2" (fun () -> Gen.cycle_stars_cliques ~k:2)

(* --- the same graphs as the edge-list generators ---------------------- *)

(* The Figure-1 families as the edge lists they were first built from, in
   the list order those generators produced (reversed, so every CSR slice
   arrived unsorted). *)
module Reference = struct
  let double_star l =
    let edges = ref [ (0, 1) ] in
    for i = 0 to l - 1 do
      edges := (0, 2 + i) :: !edges;
      edges := (1, 2 + l + i) :: !edges
    done;
    Graph.of_edges ~n:(2 + (2 * l)) !edges

  let heavy_tree_edges levels =
    let n = (1 lsl levels) - 1 in
    let first_leaf = (1 lsl (levels - 1)) - 1 in
    let edges = ref [] in
    for i = 1 to n - 1 do
      edges := (i, (i - 1) / 2) :: !edges
    done;
    for a = first_leaf to n - 1 do
      for b = a + 1 to n - 1 do
        edges := (a, b) :: !edges
      done
    done;
    (n, !edges)

  let heavy_binary_tree levels =
    let n, edges = heavy_tree_edges levels in
    Graph.of_edges ~n edges

  let siamese_heavy_tree levels =
    let n1, edges_left = heavy_tree_edges levels in
    let rename i = if i = 0 then 0 else n1 + i - 1 in
    let edges_right = List.map (fun (u, v) -> (rename u, rename v)) edges_left in
    Graph.of_edges ~n:((2 * n1) - 1) (edges_left @ edges_right)

  let cycle_stars_cliques k =
    let c i = i in
    let l i j = k + (i * k) + j in
    let q i j t = k + (k * k) + (((i * k) + j) * k) + t in
    let edges = ref [] in
    for i = 0 to k - 1 do
      edges := (c i, c ((i + 1) mod k)) :: !edges;
      for j = 0 to k - 1 do
        edges := (c i, l i j) :: !edges;
        for t = 0 to k - 1 do
          edges := (l i j, q i j t) :: !edges;
          for t' = t + 1 to k - 1 do
            edges := (q i j t, q i j t') :: !edges
          done
        done
      done
    done;
    Graph.of_edges ~n:(k + (k * k) + (k * k * k)) !edges
end

let test_same_graphs () =
  List.iter
    (fun l ->
      Csr_check.same
        (Printf.sprintf "double star %d" l)
        (Reference.double_star l)
        (Gen.double_star ~leaves_per_star:l).Gen.ds_graph)
    [ 1; 2; 3; 10; 249 ];
  for levels = 2 to 10 do
    Csr_check.same
      (Printf.sprintf "heavy tree %d" levels)
      (Reference.heavy_binary_tree levels)
      (Gen.heavy_binary_tree ~levels).Gen.ht_graph
  done;
  for levels = 2 to 9 do
    Csr_check.same
      (Printf.sprintf "siamese %d" levels)
      (Reference.siamese_heavy_tree levels)
      (Gen.siamese_heavy_tree ~levels).Gen.si_graph
  done;
  for k = 3 to 6 do
    Csr_check.same
      (Printf.sprintf "cycle-stars-cliques %d" k)
      (Reference.cycle_stars_cliques k)
      (Gen.cycle_stars_cliques ~k).Gen.csc_graph
  done

let suite =
  [
    Alcotest.test_case "double star structure" `Quick test_double_star_structure;
    Alcotest.test_case "double star diameter" `Quick test_double_star_diameter;
    Alcotest.test_case "heavy tree structure" `Quick test_heavy_tree_structure;
    Alcotest.test_case "heavy tree volume concentration" `Quick
      test_heavy_tree_volume_concentration;
    Alcotest.test_case "siamese structure" `Quick test_siamese_structure;
    Alcotest.test_case "siamese cliques disjoint" `Quick test_siamese_two_cliques_disjoint;
    Alcotest.test_case "cycle-stars-cliques structure" `Quick test_csc_structure;
    Alcotest.test_case "cycle-stars-cliques nearly regular" `Quick test_csc_nearly_regular;
    Alcotest.test_case "invalid sizes" `Quick test_invalid_sizes;
    Alcotest.test_case "same graphs as the edge-list builds" `Quick test_same_graphs;
  ]
