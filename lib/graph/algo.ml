(* The breadth-first searches below walk each vertex's CSR slot range
   [first_arc u, first_arc (u+1)) directly: two offset reads a vertex, one
   slot read an arc, and no closure.  All but [is_bipartite] stop once
   every vertex has been reached: the arcs still unscanned can only lead
   to reached vertices, so the answer is already settled (on a heavy tree
   the first leaf reaches every other leaf, and the rest of the clique is
   never scanned). *)

(* lint: hot *)
let bfs_distances g src =
  let n = Graph.n g in
  if src < 0 || src >= n then invalid_arg "Algo.bfs_distances: source out of range";
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 1 in
  dist.(src) <- 0;
  queue.(0) <- src;
  while !head < !tail && !tail < n do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 in
    for i = Graph.first_arc g u to Graph.first_arc g (u + 1) - 1 do
      let v = Graph.arc_head g i in
      if dist.(v) < 0 then begin
        dist.(v) <- du;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  dist

(* lint: hot *)
let components g =
  let n = Graph.n g in
  let label = Array.make n (-1) in
  let queue = Array.make n 0 in
  let next_label = ref 0 in
  (* [labelled] counts the vertices of earlier components; the current one
     holds queue.(0 .. tail-1) *)
  let labelled = ref 0 in
  let head = ref 0 and tail = ref 0 in
  for s = 0 to n - 1 do
    if label.(s) < 0 then begin
      let id = !next_label in
      incr next_label;
      label.(s) <- id;
      queue.(0) <- s;
      head := 0;
      tail := 1;
      while !head < !tail && !labelled + !tail < n do
        let u = queue.(!head) in
        incr head;
        for i = Graph.first_arc g u to Graph.first_arc g (u + 1) - 1 do
          let v = Graph.arc_head g i in
          if label.(v) < 0 then begin
            label.(v) <- id;
            queue.(!tail) <- v;
            incr tail
          end
        done
      done;
      labelled := !labelled + !tail
    end
  done;
  label

let component_count g =
  let label = components g in
  Array.fold_left max (-1) label + 1

(* one BFS from vertex 0 over a byte-per-vertex seen set; no labels *)
(* lint: hot *)
let is_connected g =
  let n = Graph.n g in
  n <= 1
  ||
  let seen = Bytes.make n '\000' in
  let queue = Array.make n 0 (* queue.(0) = 0, the start *) in
  Bytes.set seen 0 '\001';
  let head = ref 0 and tail = ref 1 in
  while !head < !tail && !tail < n do
    let u = queue.(!head) in
    incr head;
    for i = Graph.first_arc g u to Graph.first_arc g (u + 1) - 1 do
      let v = Graph.arc_head g i in
      if Bytes.get seen v = '\000' then begin
        Bytes.set seen v '\001';
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  !tail = n

let eccentricity g src =
  let dist = bfs_distances g src in
  Array.fold_left
    (fun acc d ->
      if d < 0 then invalid_arg "Algo.eccentricity: disconnected graph"
      else max acc d)
    0 dist

let diameter g =
  if not (is_connected g) then invalid_arg "Algo.diameter: disconnected graph";
  let best = ref 0 in
  for u = 0 to Graph.n g - 1 do
    let e = eccentricity g u in
    if e > !best then best := e
  done;
  !best

let diameter_lower_bound g =
  if Graph.n g = 0 then 0
  else begin
    let dist0 = bfs_distances g 0 in
    let far = ref 0 in
    Array.iteri (fun v d -> if d > dist0.(!far) then far := v) dist0;
    let dist1 = bfs_distances g !far in
    Array.fold_left max 0 dist1
  end

(* 2-colouring by BFS, one component at a time, over a byte per vertex:
   '\000'/'\001' the two sides, '\002' not reached yet.  A component stops
   at the first vertex whose scan finds an edge inside one side. *)
(* lint: hot *)
let is_bipartite g =
  let n = Graph.n g in
  let color = Bytes.make n '\002' in
  let queue = Array.make n 0 in
  let ok = ref true in
  let head = ref 0 and tail = ref 0 in
  for s = 0 to n - 1 do
    if !ok && Bytes.get color s = '\002' then begin
      Bytes.set color s '\000';
      queue.(0) <- s;
      head := 0;
      tail := 1;
      while !ok && !head < !tail do
        let u = queue.(!head) in
        incr head;
        let cu = Bytes.get color u in
        let other = if cu = '\000' then '\001' else '\000' in
        for i = Graph.first_arc g u to Graph.first_arc g (u + 1) - 1 do
          let v = Graph.arc_head g i in
          let cv = Bytes.get color v in
          if cv = '\002' then begin
            Bytes.set color v other;
            queue.(!tail) <- v;
            incr tail
          end
          else if cv = cu then ok := false
        done
      done
    end
  done;
  !ok

let degree_histogram g =
  let table = Hashtbl.create 16 in
  for u = 0 to Graph.n g - 1 do
    let d = Graph.degree g u in
    Hashtbl.replace table d (1 + Option.value ~default:0 (Hashtbl.find_opt table d))
  done;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
