(* Every generator emits its edges as (smaller, larger) pairs in ascending
   order, so each CSR slice fills already sorted and [Graph.Builder.finish]
   skips its sort. *)

(* the clique on [base .. base+size-1] *)
let add_clique b base size =
  for u = base to base + size - 1 do
    for v = u + 1 to base + size - 1 do
      Graph.Builder.add_edge b u v
    done
  done

let complete n =
  if n < 1 then invalid_arg "Gen_basic.complete: n < 1";
  let b = Graph.Builder.create ~capacity:(n * (n - 1) / 2) ~n () in
  add_clique b 0 n;
  Graph.Builder.finish b

(* the path [first] — [first+1] — ... — [last] *)
let add_path b first last =
  for i = first to last - 1 do
    Graph.Builder.add_edge b i (i + 1)
  done

let path n =
  if n < 1 then invalid_arg "Gen_basic.path: n < 1";
  let b = Graph.Builder.create ~capacity:(n - 1) ~n () in
  add_path b 0 (n - 1);
  Graph.Builder.finish b

let cycle n =
  if n < 3 then invalid_arg "Gen_basic.cycle: n < 3";
  let b = Graph.Builder.create ~capacity:n ~n () in
  Graph.Builder.add_edge b 0 1;
  (* the closing edge (n-1, 0), in its ascending place *)
  Graph.Builder.add_edge b 0 (n - 1);
  add_path b 1 (n - 1);
  Graph.Builder.finish b

let star ~leaves =
  if leaves < 1 then invalid_arg "Gen_basic.star: leaves < 1";
  let b = Graph.Builder.create ~capacity:leaves ~n:(leaves + 1) () in
  for i = 1 to leaves do
    Graph.Builder.add_edge b 0 i
  done;
  Graph.Builder.finish b

let complete_binary_tree ~levels =
  if levels < 1 then invalid_arg "Gen_basic.complete_binary_tree: levels < 1";
  let n = (1 lsl levels) - 1 in
  let b = Graph.Builder.create ~capacity:(n - 1) ~n () in
  (* the parent (i-1)/2 never decreases as i rises *)
  for i = 1 to n - 1 do
    Graph.Builder.add_edge b ((i - 1) / 2) i
  done;
  Graph.Builder.finish b

let grid ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Gen_basic.grid: empty dimension";
  let id r c = (r * cols) + c in
  let n = rows * cols in
  let b = Graph.Builder.create ~capacity:(2 * n) ~n () in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then Graph.Builder.add_edge b (id r c) (id r (c + 1));
      if r + 1 < rows then Graph.Builder.add_edge b (id r c) (id (r + 1) c)
    done
  done;
  Graph.Builder.finish b

let torus ~rows ~cols =
  if rows < 3 || cols < 3 then invalid_arg "Gen_basic.torus: need rows, cols >= 3";
  let id r c = (r * cols) + c in
  let n = rows * cols in
  let b = Graph.Builder.create ~capacity:(2 * n) ~n () in
  (* each vertex's larger neighbours, ascending: right, the row's far end
     (the wrap-around, from column 0), below, the bottom row (the
     wrap-around, from row 0) *)
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let u = id r c in
      if c + 1 < cols then Graph.Builder.add_edge b u (id r (c + 1));
      if c = 0 then Graph.Builder.add_edge b u (id r (cols - 1));
      if r + 1 < rows then Graph.Builder.add_edge b u (id (r + 1) c);
      if r = 0 then Graph.Builder.add_edge b u (id (rows - 1) c)
    done
  done;
  Graph.Builder.finish b

let hypercube ~dim =
  if dim < 1 then invalid_arg "Gen_basic.hypercube: dim < 1";
  if dim > 24 then invalid_arg "Gen_basic.hypercube: dim too large";
  let n = 1 lsl dim in
  let b = Graph.Builder.create ~capacity:(n * dim / 2) ~n () in
  for u = 0 to n - 1 do
    for i = 0 to dim - 1 do
      let v = u lxor (1 lsl i) in
      if u < v then Graph.Builder.add_edge b u v
    done
  done;
  Graph.Builder.finish b

let necklace ~cliques ~clique_size =
  if cliques < 3 then invalid_arg "Gen_basic.necklace: cliques < 3";
  if clique_size < 4 then invalid_arg "Gen_basic.necklace: clique_size < 4";
  let s = clique_size in
  let n = cliques * s in
  (* vertices of clique i are i*s .. i*s + s - 1; ports are the first two.
     The internal port edge (i*s, i*s+1) is dropped and replaced by the
     inter-clique edge (i*s+1, ((i+1) mod cliques)*s), keeping every degree
     equal to s-1. *)
  let b = Graph.Builder.create ~capacity:(cliques * (s * (s - 1) / 2)) ~n () in
  for i = 0 to cliques - 1 do
    let base = i * s in
    for x = 0 to s - 1 do
      for y = x + 1 to s - 1 do
        if not (x = 0 && y = 1) then Graph.Builder.add_edge b (base + x) (base + y)
      done;
      (* the port edges, after the clique edges of their smaller end: the
         last clique's (n-s+1, 0) is vertex 0's, the others go forward *)
      if i = 0 && x = 0 then Graph.Builder.add_edge b 0 (n - s + 1);
      if x = 1 && i < cliques - 1 then Graph.Builder.add_edge b (base + 1) (base + s)
    done
  done;
  Graph.Builder.finish b

let barbell ~clique_size ~bridge_len =
  if clique_size < 2 then invalid_arg "Gen_basic.barbell: clique_size < 2";
  if bridge_len < 0 then invalid_arg "Gen_basic.barbell: bridge_len < 0";
  let s = clique_size in
  let n = (2 * s) + bridge_len in
  let b = Graph.Builder.create ~capacity:((s * (s - 1)) + bridge_len + 1) ~n () in
  add_clique b 0 s;
  (* bridge path: vertex s-1 .. s .. s+bridge_len-1 .. s+bridge_len *)
  add_path b (s - 1) (s + bridge_len);
  add_clique b (s + bridge_len) s;
  Graph.Builder.finish b

let lollipop ~clique_size ~tail_len =
  if clique_size < 2 then invalid_arg "Gen_basic.lollipop: clique_size < 2";
  if tail_len < 1 then invalid_arg "Gen_basic.lollipop: tail_len < 1";
  let s = clique_size in
  let n = s + tail_len in
  let b = Graph.Builder.create ~capacity:((s * (s - 1) / 2) + tail_len) ~n () in
  add_clique b 0 s;
  add_path b (s - 1) (n - 1);
  Graph.Builder.finish b
