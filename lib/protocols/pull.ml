module Graph = Rumor_graph.Graph
module Obs = Rumor_obs.Instrument

let run ?obs rng g ~source ~max_rounds () =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Pull.run: source out of range";
  if max_rounds < 0 then invalid_arg "Pull.run: negative round cap";
  let informed_round = Array.make n max_int in
  informed_round.(source) <- 0;
  let count = ref 1 in
  let contacts = ref 0 in
  let curve = Curve_buf.create ~hint:max_rounds in
  Curve_buf.push curve 1;
  let t = ref 0 in
  while !count < n && !t < max_rounds do
    incr t;
    let round = !t in
    Obs.round_start obs round;
    for u = 0 to n - 1 do
      if informed_round.(u) > round then begin
        let v = Graph.random_neighbor g rng u in
        incr contacts;
        Obs.contact obs u v;
        if informed_round.(v) < round then begin
          informed_round.(u) <- round;
          incr count
        end
      end
    done;
    Curve_buf.push curve !count;
    Obs.round_end obs ~round ~informed:!count ~contacts:!contacts
  done;
  let rounds_run = !t in
  let broadcast_time = if !count = n then Some rounds_run else None in
  Run_result.make ~broadcast_time ~rounds_run
    ~informed_curve:(Curve_buf.contents curve)
    ~contacts:!contacts ()
