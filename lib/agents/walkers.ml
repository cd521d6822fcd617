module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph

type t = {
  graph : Graph.t;
  rng : Rng.t;
  pos : int array;
  occ : int array;
  lazy_walk : bool;
  mutable round : int;
}

let create ?(lazy_walk = false) rng graph pos =
  let n = Graph.n graph in
  let occ = Array.make n 0 in
  Array.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Walkers.create: position out of range";
      if Graph.degree graph v = 0 then
        invalid_arg "Walkers.create: agent on isolated vertex";
      occ.(v) <- occ.(v) + 1)
    pos;
  if Array.length pos = 0 then invalid_arg "Walkers.create: no agents";
  { graph; rng; pos; occ; lazy_walk; round = 0 }

let of_spec ?lazy_walk rng graph spec =
  create ?lazy_walk rng graph (Placement.place rng spec graph)

let graph w = w.graph
let agent_count w = Array.length w.pos
let is_lazy w = w.lazy_walk
let position w a = w.pos.(a)
let positions w = w.pos
let occupancy w v = w.occ.(v)
let round w = w.round

let move_one w a =
  let u = w.pos.(a) in
  if w.lazy_walk && Rng.bool w.rng then u
  else begin
    let v = Graph.random_neighbor w.graph w.rng u in
    w.occ.(u) <- w.occ.(u) - 1;
    w.occ.(v) <- w.occ.(v) + 1;
    w.pos.(a) <- v;
    v
  end

let step w =
  for a = 0 to Array.length w.pos - 1 do
    ignore (move_one w a)
  done;
  w.round <- w.round + 1

let step_with w f =
  for a = 0 to Array.length w.pos - 1 do
    let from = w.pos.(a) in
    let to_ = move_one w a in
    f a from to_
  done;
  w.round <- w.round + 1
