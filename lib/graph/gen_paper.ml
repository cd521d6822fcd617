type double_star = {
  ds_graph : Graph.t;
  ds_center_a : int;
  ds_center_b : int;
  ds_leaf_a : int;
}

let double_star ~leaves_per_star =
  if leaves_per_star < 1 then invalid_arg "Gen_paper.double_star: leaves < 1";
  let l = leaves_per_star in
  let n = 2 + (2 * l) in
  (* centers 0 and 1; leaves of a: 2 .. l+1; leaves of b: l+2 .. 2l+1 *)
  let b = Graph.Builder.create ~capacity:(n - 1) ~n () in
  Graph.Builder.add_edge b 0 1;
  for i = 2 to l + 1 do
    Graph.Builder.add_edge b 0 i
  done;
  for i = l + 2 to n - 1 do
    Graph.Builder.add_edge b 1 i
  done;
  { ds_graph = Graph.Builder.finish b; ds_center_a = 0; ds_center_b = 1; ds_leaf_a = 2 }

type heavy_tree = {
  ht_graph : Graph.t;
  ht_root : int;
  ht_first_leaf : int;
  ht_leaf_count : int;
}

(* Binary-heap numbering: vertex i's children are 2i+1 and 2i+2; with
   [levels] levels the tree has 2^levels - 1 vertices and the leaves are the
   last 2^(levels-1). *)
let heavy_tree_size ~levels = ((1 lsl levels) - 1, (1 lsl (levels - 1)) - 1)

let heavy_tree_edge_count ~levels =
  let n, first_leaf = heavy_tree_size ~levels in
  let leaves = n - first_leaf in
  n - 1 + (leaves * (leaves - 1) / 2)

(* The heavy-tree edges from vertex [a] to its larger neighbours, ascending:
   an internal vertex's two children, or a leaf's later clique mates.  Every
   vertex but the root is renamed i -> i + [shift]; the root keeps id 0, so
   two copies can share it.  Called for a = 0, 1, ... in turn, it emits the
   edges in ascending order. *)
let add_heavy_tree_edges b ~levels ~shift a =
  let n, first_leaf = heavy_tree_size ~levels in
  let ra = if a = 0 then 0 else a + shift in
  if a < first_leaf then begin
    Graph.Builder.add_edge b ra ((2 * a) + 1 + shift);
    Graph.Builder.add_edge b ra ((2 * a) + 2 + shift)
  end
  else
    for c = a + 1 + shift to n - 1 + shift do
      Graph.Builder.add_edge b ra c
    done

let heavy_binary_tree ~levels =
  if levels < 2 then invalid_arg "Gen_paper.heavy_binary_tree: levels < 2";
  let n, first_leaf = heavy_tree_size ~levels in
  let b = Graph.Builder.create ~capacity:(heavy_tree_edge_count ~levels) ~n () in
  for a = 0 to n - 1 do
    add_heavy_tree_edges b ~levels ~shift:0 a
  done;
  {
    ht_graph = Graph.Builder.finish b;
    ht_root = 0;
    ht_first_leaf = first_leaf;
    ht_leaf_count = n - first_leaf;
  }

type siamese = {
  si_graph : Graph.t;
  si_root : int;
  si_leaf_left : int;
  si_leaf_right : int;
}

let siamese_heavy_tree ~levels =
  if levels < 2 then invalid_arg "Gen_paper.siamese_heavy_tree: levels < 2";
  let n1, first_leaf = heavy_tree_size ~levels in
  (* The right copy reuses vertex 0 as the shared root; its vertex i > 0 is
     shifted to n1 + i - 1, above every vertex of the left copy. *)
  let shift = n1 - 1 in
  let n = (2 * n1) - 1 in
  let b =
    Graph.Builder.create ~capacity:(2 * heavy_tree_edge_count ~levels) ~n ()
  in
  (* ascending: the root's edges into both copies, then the rest of the
     left copy, then the rest of the right *)
  add_heavy_tree_edges b ~levels ~shift:0 0;
  add_heavy_tree_edges b ~levels ~shift 0;
  for a = 1 to n1 - 1 do
    add_heavy_tree_edges b ~levels ~shift:0 a
  done;
  for a = 1 to n1 - 1 do
    add_heavy_tree_edges b ~levels ~shift a
  done;
  {
    si_graph = Graph.Builder.finish b;
    si_root = 0;
    si_leaf_left = first_leaf;
    si_leaf_right = first_leaf + shift;
  }

type csc = {
  csc_graph : Graph.t;
  csc_k : int;
  csc_ring : int array;
  csc_a_clique_vertex : int;
}

let cycle_stars_cliques ~k =
  if k < 3 then invalid_arg "Gen_paper.cycle_stars_cliques: k < 3";
  (* layout: ring vertices c_i = i (i < k); star leaves l_{i,j} = k + i*k + j;
     clique vertices q_{i,j,t} = k + k^2 + ((i*k + j) * k) + t. *)
  let c i = i in
  let l i j = k + (i * k) + j in
  let q i j t = k + (k * k) + (((i * k) + j) * k) + t in
  let n = k + (k * k) + (k * k * k) in
  (* one ring, star or leaf-to-clique edge per vertex, plus the k^2 cliques *)
  let b = Graph.Builder.create ~capacity:(n + (k * k * (k * (k - 1) / 2))) ~n () in
  (* ascending, layer by layer: the ring (with the closing edge (k-1, 0) in
     vertex 0's place) and star edges, then each leaf's clique edges, then
     the edges inside each clique *)
  for i = 0 to k - 1 do
    if i = 0 then begin
      Graph.Builder.add_edge b (c 0) (c 1);
      Graph.Builder.add_edge b (c 0) (c (k - 1))
    end
    else if i < k - 1 then Graph.Builder.add_edge b (c i) (c (i + 1));
    for j = 0 to k - 1 do
      Graph.Builder.add_edge b (c i) (l i j)
    done
  done;
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      for t = 0 to k - 1 do
        Graph.Builder.add_edge b (l i j) (q i j t)
      done
    done
  done;
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      for t = 0 to k - 1 do
        for t' = t + 1 to k - 1 do
          Graph.Builder.add_edge b (q i j t) (q i j t')
        done
      done
    done
  done;
  {
    csc_graph = Graph.Builder.finish b;
    csc_k = k;
    csc_ring = Array.init k c;
    csc_a_clique_vertex = q 0 0 0;
  }
