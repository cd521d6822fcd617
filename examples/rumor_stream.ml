(* A stream of rumors over one agent population (the paper's Section 1
   motivation for stationary starts).

     dune exec examples/rumor_stream.exe

   Injects a new rumor every few rounds from rotating sources, all carried
   by the same n stationary random walks, and shows that each rumor's
   broadcast time matches the single-rumor baseline: the agents are a
   shared dissemination fabric, and rumors do not interfere. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module P = Rumor_protocols
open Rumor_agents.Placement

let () =
  let rng = Rng.of_int 5150 in
  let n = 2048 in
  let g = Rumor_graph.Gen_random.random_regular_connected rng ~n ~d:11 in
  Format.printf "graph: %a@.@." Graph.pp g;

  let rumor_count = 24 in
  let gap = 4 in
  let injections =
    Array.init rumor_count (fun i ->
        { P.Multi_rumor.rumor_source = i * 37 mod n; start_round = i * gap })
  in
  let r =
    P.Multi_rumor.run (Rng.of_int 1) g ~injections ~agents:(Linear 1.0)
      ~max_rounds:100_000
  in
  Format.printf "%d rumors, one injected every %d rounds; run ended at round %d@.@."
    rumor_count gap r.P.Multi_rumor.rounds_run;
  Format.printf "%5s %8s %7s  %s@." "rumor" "injected" "done in" "";
  Array.iteri
    (fun i t ->
      let bar = String.make (min t 60) '#' in
      Format.printf "%5d %8d %7d  %s@." i injections.(i).P.Multi_rumor.start_round t bar)
    r.P.Multi_rumor.per_rumor_time;

  (* baseline: the same graph, a single rumor *)
  let baseline =
    P.Engine.visit_exchange (Rng.of_int 2) g ~source:0 ~agents:(Linear 1.0)
      ~max_rounds:100_000 ()
  in
  let times = Array.map float_of_int r.P.Multi_rumor.per_rumor_time in
  let mean = Array.fold_left ( +. ) 0.0 times /. float_of_int rumor_count in
  Format.printf "@.mean per-rumor time: %.1f; single-rumor baseline: %d@." mean
    (P.Run_result.time_exn baseline);
  Format.printf
    "the shared walks carry all %d rumors at once — this is why the paper@."
    rumor_count;
  Format.printf "assumes agents start from (and stay at) the stationary distribution.@."
