module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph

type spec =
  | Stationary of int
  | One_per_vertex
  | All_at of int * int
  | Linear of float

let count spec g =
  match spec with
  | Stationary k -> k
  | One_per_vertex -> Graph.n g
  | All_at (_, k) -> k
  | Linear alpha ->
      let k = alpha *. float_of_int (Graph.n g) in
      (* also rejects NaN and infinity, which int_of_float would wrap *)
      if not (k < float_of_int Sys.max_array_length) then
        invalid_arg
          (Printf.sprintf "Placement.count: %g agents exceed the array limit" k);
      max (int_of_float (Float.round k)) 1

(* The stationary law deg v / 2m is the law of the head of a uniformly
   random arc: one [Rng.int] over the 2m CSR slots and one slot read per
   agent, with no table to build.  [place] and [place_counts] both draw
   through this, one draw per agent in agent order. *)
let[@inline] stationary_draw rng g arcs = Graph.arc_head g (Rng.int rng arcs)

let arcs_of ~who g =
  let arcs = Graph.arc_count g in
  if arcs = 0 then
    invalid_arg (who ^ ": stationary placement on a graph with no edges");
  arcs

let place rng spec g =
  let k = count spec g in
  if k <= 0 then invalid_arg "Placement.place: no agents";
  match spec with
  | Stationary _ | Linear _ ->
      let arcs = arcs_of ~who:"Placement.place" g in
      let pos = Array.make k 0 in
      for a = 0 to k - 1 do
        pos.(a) <- stationary_draw rng g arcs
      done;
      pos
  | One_per_vertex -> Array.init (Graph.n g) (fun v -> v)
  | All_at (v, _) ->
      if v < 0 || v >= Graph.n g then invalid_arg "Placement.place: vertex out of range";
      Array.make k v

let place_counts rng spec g =
  let k = count spec g in
  if k <= 0 then invalid_arg "Placement.place_counts: no agents";
  let n = Graph.n g in
  let counts = Array.make n 0 in
  (match spec with
  | Stationary _ | Linear _ ->
      (* same draw sequence as {!place}, histogrammed on the fly: O(n + k)
         memory-independent of per-agent identity *)
      let arcs = arcs_of ~who:"Placement.place_counts" g in
      for _ = 1 to k do
        let v = stationary_draw rng g arcs in
        counts.(v) <- counts.(v) + 1
      done
  | One_per_vertex -> Array.fill counts 0 n 1
  | All_at (v, _) ->
      if v < 0 || v >= n then invalid_arg "Placement.place_counts: vertex out of range";
      counts.(v) <- k);
  counts
