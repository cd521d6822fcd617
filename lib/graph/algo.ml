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

(* Reachability from vertex 0 needs no BFS levels, so the search may change
   direction (Beamer, Asanovic and Patterson, SC 2012).  It runs top-down,
   level by level, while the frontier (the level about to be scanned) is
   thin, then switches to bottom-up sweeps over the unseen vertices: each
   scans its slice only until it finds a seen neighbour, and one seen
   earlier in the same sweep counts.  The sweeps list the unseen vertices
   in the queue's own tail, from position [tail] on, and swap each newly
   seen one to position [tail], so queue.(0 .. tail-1) stays the seen set
   in discovery order.

   After a full sweep, no vertex still unseen has a neighbour seen before
   that sweep began: its whole slice was scanned and none was seen then.
   So a sweep that sees nothing settles the answer (false), and a sweep
   whose failed vertices keep more than half of the unseen arcs hands back
   to top-down search from the sweep's first discovery: the earlier queue
   needs no scan.  The sweeps skip the vertices of degree 0, so each vertex
   they visit has an arc and a sweep costs at most twice the unseen arcs;
   each sweep that goes on halves those.  Top-down scans a vertex at most
   once, so the whole run is O(n + m).

   Every index below is in range by construction: arc heads are vertex
   ids, below n in any graph a constructor returns; a vertex enters the
   queue once, so [tail] < n while one is still unseen; and head <= tail,
   p < n.  Hence the unchecked accesses in the loops. *)

type cursors = { mutable head : int; mutable tail : int }

(* Beamer et al.'s alpha: a frontier wider than 1/14 of the unseen
   vertices is worth a bottom-up sweep *)
let wide = 14

(* Top-down search from [c.head], a level boundary, until all n vertices
   are seen or the queue runs out.  With [switch] it stops instead at the
   first level boundary where the level is wide: it holds more than
   1/[wide] of the unseen vertices, and at least n arcs at a lower bound of
   the mean degree of the vertices scanned so far (each found
   (tail-1)/head new ones, plus the arc back to its parent).  The arc floor
   pays for the sweeps' O(n) listing pass with top-down scans saved, and
   keeps trees and paths top-down: there a sweep saves nothing. *)
(* lint: hot *)
let top_down g seen queue c ~switch =
  let n = Graph.n g in
  let head = ref c.head and tail = ref c.tail and go = ref true in
  while !go && !head < !tail && !tail < n do
    let level = !tail - !head in
    if switch && level * wide > n - !tail && level * (!tail - 1 + !head) >= n * !head
    then go := false
    else begin
      let stop = !tail in
      while !head < stop && !tail < n do
        let u = Array.unsafe_get queue !head in
        incr head;
        for i = Graph.first_arc g u to Graph.first_arc g (u + 1) - 1 do
          let v = Graph.arc_head g i in
          if Bytes.unsafe_get seen v = '\000' then begin
            Bytes.unsafe_set seen v '\001';
            Array.unsafe_set queue !tail v;
            incr tail
          end
        done
      done
    end
  done;
  c.head <- !head;
  c.tail <- !tail

(* Bottom-up sweeps over the vertices not in queue.(0 .. c.tail-1), until
   one settles the answer or hands back; [c.head] goes to the last sweep's
   start, where top-down search goes on (at once done if that sweep saw
   nothing).  An unseen vertex of degree 0 is never seen, so it is left
   out of the list: queue.(tail .. last-1) holds the unseen vertices with
   an arc. *)
(* lint: hot *)
let sweep_bottom_up g seen queue c =
  let n = Graph.n g in
  let tail = ref c.tail in
  let p = ref !tail and unseen_arcs = ref 0 in
  for v = 0 to n - 1 do
    let dv = Graph.degree g v in
    if Bytes.unsafe_get seen v = '\000' && dv > 0 then begin
      Array.unsafe_set queue !p v;
      incr p;
      unseen_arcs := !unseen_arcs + dv
    end
  done;
  let last = !p in
  let head = ref (-1) and failed_arcs = ref 0 and i = ref 0 in
  while !head < 0 do
    let start = !tail in
    failed_arcs := 0;
    for p = start to last - 1 do
      let w = Array.unsafe_get queue p in
      let lo = Graph.first_arc g w and hi = Graph.first_arc g (w + 1) in
      i := lo;
      while !i < hi && Bytes.unsafe_get seen (Graph.arc_head g !i) = '\000' do
        incr i
      done;
      if !i < hi then begin
        Bytes.unsafe_set seen w '\001';
        Array.unsafe_set queue p (Array.unsafe_get queue !tail);
        Array.unsafe_set queue !tail w;
        incr tail
      end
      else failed_arcs := !failed_arcs + (hi - lo)
    done;
    if !tail = last || !tail = start || 2 * !failed_arcs > !unseen_arcs then head := start
    else unseen_arcs := !failed_arcs
  done;
  c.head <- !head;
  c.tail <- !tail

let is_connected g =
  let n = Graph.n g in
  n <= 1
  ||
  let seen = Bytes.make n '\000' in
  let queue = Array.make n 0 (* queue.(0) = 0, the start *) in
  Bytes.set seen 0 '\001';
  let c = { head = 0; tail = 1 } in
  top_down g seen queue c ~switch:true;
  if c.head < c.tail && c.tail < n then begin
    sweep_bottom_up g seen queue c;
    top_down g seen queue c ~switch:false
  end;
  c.tail = n

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
