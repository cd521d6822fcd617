let bfs_distances g src =
  let n = Graph.n g in
  if src < 0 || src >= n then invalid_arg "Algo.bfs_distances: source out of range";
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  dist.(src) <- 0;
  queue.(!tail) <- src;
  incr tail;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    Graph.iter_neighbors g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          queue.(!tail) <- v;
          incr tail
        end)
  done;
  dist

let components g =
  let n = Graph.n g in
  let label = Array.make n (-1) in
  let queue = Array.make n 0 in
  let next_label = ref 0 in
  for s = 0 to n - 1 do
    if label.(s) < 0 then begin
      let id = !next_label in
      incr next_label;
      let head = ref 0 and tail = ref 0 in
      label.(s) <- id;
      queue.(!tail) <- s;
      incr tail;
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        Graph.iter_neighbors g u (fun v ->
            if label.(v) < 0 then begin
              label.(v) <- id;
              queue.(!tail) <- v;
              incr tail
            end)
      done
    end
  done;
  label

let component_count g =
  let label = components g in
  Array.fold_left max (-1) label + 1

(* one BFS from vertex 0 over a byte-per-vertex seen set; no labels, no
   closure per vertex *)
let is_connected g =
  let n = Graph.n g in
  n <= 1
  ||
  let seen = Bytes.make n '\000' in
  let queue = Array.make n 0 (* queue.(0) = 0, the start *) in
  Bytes.set seen 0 '\001';
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for i = 0 to Graph.degree g u - 1 do
      let v = Graph.neighbor g u i in
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

let is_bipartite g =
  let n = Graph.n g in
  let color = Array.make n (-1) in
  let queue = Array.make n 0 in
  let ok = ref true in
  for s = 0 to n - 1 do
    if !ok && color.(s) < 0 then begin
      let head = ref 0 and tail = ref 0 in
      color.(s) <- 0;
      queue.(!tail) <- s;
      incr tail;
      while !ok && !head < !tail do
        let u = queue.(!head) in
        incr head;
        Graph.iter_neighbors g u (fun v ->
            if color.(v) < 0 then begin
              color.(v) <- 1 - color.(u);
              queue.(!tail) <- v;
              incr tail
            end
            else if color.(v) = color.(u) then ok := false)
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
