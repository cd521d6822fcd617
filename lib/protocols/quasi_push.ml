module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Obs = Rumor_obs.Instrument

let run ?obs rng g ~source ~max_rounds () =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Quasi_push.run: source out of range";
  if max_rounds < 0 then invalid_arg "Quasi_push.run: negative round cap";
  let informed = Array.make n false in
  (* cursor.(u): next position in u's neighbor cycle; set when informed *)
  let cursor = Array.make n 0 in
  let order = Array.make n 0 in
  let inform u =
    informed.(u) <- true;
    (* an isolated source (n = 1) never calls: it has no cursor to draw *)
    if Graph.degree g u > 0 then cursor.(u) <- Rng.int rng (Graph.degree g u)
  in
  inform source;
  order.(0) <- source;
  let count = ref 1 in
  let contacts = ref 0 in
  let curve = Curve_buf.create ~hint:max_rounds in
  Curve_buf.push curve 1;
  let t = ref 0 in
  while !count < n && !t < max_rounds do
    incr t;
    Obs.round_start obs !t;
    let active = !count in
    for i = 0 to active - 1 do
      let u = order.(i) in
      let d = Graph.degree g u in
      let v = Graph.neighbor g u (cursor.(u) mod d) in
      cursor.(u) <- cursor.(u) + 1;
      incr contacts;
      Obs.contact obs u v;
      if not informed.(v) then begin
        inform v;
        order.(!count) <- v;
        incr count
      end
    done;
    Curve_buf.push curve !count;
    Obs.round_end obs ~round:!t ~informed:!count ~contacts:!contacts
  done;
  let rounds_run = !t in
  let broadcast_time = if !count = n then Some rounds_run else None in
  Run_result.make ~broadcast_time ~rounds_run
    ~informed_curve:(Curve_buf.contents curve)
    ~contacts:!contacts ()
