(* rumor_graphgen: generate, inspect, and export the graph families.

   Examples:
     rumor_graphgen --graph heavy-tree:10
     rumor_graphgen --graph random-regular:1024,10 --seed 7 --edges -o g.edges
     rumor_graphgen --graph csc:6 --dot -o csc.dot *)

open Cmdliner
module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Algo = Rumor_graph.Algo
module Graph_io = Rumor_graph.Graph_io
module Graph_spec = Rumor_sim.Graph_spec
module Clock = Rumor_obs.Clock
module Trace = Rumor_obs.Trace

let write_trace tr path =
  if Filename.check_suffix path ".jsonl" then Trace.write_jsonl tr path
  else Trace.write_chrome tr path

let output text = function
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s\n" path

let print_analysis g =
  let spectral_iterations = 2000 in
  let gap = Rumor_graph.Spectral.spectral_gap ~iterations:spectral_iterations g in
  Printf.printf "spectral gap (lazy walk): %.5f\n" gap;
  Printf.printf "relaxation time: %.1f\n" (1.0 /. gap);
  let phi =
    if Graph.n g <= 16 then Rumor_graph.Spectral.conductance_exact g
    else Rumor_graph.Spectral.conductance_sweep ~iterations:spectral_iterations g
  in
  Printf.printf "conductance%s: %.5f\n"
    (if Graph.n g <= 16 then " (exact)" else " (sweep upper bound)")
    phi;
  Printf.printf "push-pull bound [11], ln n / phi: %.0f\n"
    (log (float_of_int (Graph.n g)) /. phi);
  if Graph.n g <= 200 then begin
    let h = Rumor_graph.Hitting.hitting_times g 0 in
    let worst = Array.fold_left Float.max 0.0 h in
    Printf.printf "max hitting time to vertex 0 (exact): %.1f\n" worst
  end;
  if Graph.n g <= 30 then
    try
      let lazy_walk = Rumor_graph.Algo.is_bipartite g in
      Printf.printf "max meeting time (exact%s): %.1f\n"
        (if lazy_walk then ", lazy walks" else "")
        (Rumor_graph.Hitting.max_meeting_time ~lazy_walk g)
    with Invalid_argument _ -> ()

let run graph_text seed dot edges analysis timing trace_path out =
  match Graph_spec.parse graph_text with
  | Error m -> `Error (false, m)
  | Ok spec ->
      let rng = Rng.of_int seed in
      let trace = Option.map (fun _ -> Trace.create ()) trace_path in
      let started = Clock.now_s () in
      let allocated_before = Gc.allocated_bytes () in
      match Graph_spec.build ?trace rng spec with
      | exception Invalid_argument m ->
          (* a generator rejecting its parameters (cycle:0) is a usage error *)
          `Error
            (false,
             Printf.sprintf "bad --graph %s: %s" (Graph_spec.to_string spec) m)
      | g, source -> (
          let build_seconds = Clock.elapsed_s ~since:started in
          let build_allocated = Gc.allocated_bytes () -. allocated_before in
          if timing then begin
            (* the CSR footprint is what a simulation keeps resident; the
               allocation figure shows the streaming builders' small surplus *)
            Printf.printf "build: %.3fs, CSR %.1f MB, %.1f MB allocated on the way\n"
              build_seconds
              (float_of_int (Graph.csr_bytes g) /. 1e6)
              (build_allocated /. 1e6)
          end;
          if dot then output (Graph_io.to_dot g) out
          else if edges then output (Graph_io.to_edge_list g) out
          else begin
            Printf.printf "%s\n" (Format.asprintf "%a" Graph.pp g);
            Printf.printf "default source: %d\n" source;
            Printf.printf "connected: %b\n" (Algo.is_connected g);
            Printf.printf "bipartite: %b\n" (Algo.is_bipartite g);
            if Algo.is_connected g then
              if Graph.n g <= 4096 then
                Printf.printf "diameter: %d\n" (Algo.diameter g)
              else
                Printf.printf "diameter (double-sweep lower bound): %d\n"
                  (Algo.diameter_lower_bound g);
            Printf.printf "degree histogram:\n";
            List.iter
              (fun (d, c) -> Printf.printf "  degree %d: %d vertices\n" d c)
              (Algo.degree_histogram g);
            if analysis && Algo.is_connected g then print_analysis g
          end;
          (match (trace, trace_path) with
          | Some tr, Some path -> (
              match write_trace tr path with
              | () ->
                  Printf.printf "wrote trace (%d events) to %s\n" (Trace.events tr)
                    path;
                  `Ok ()
              | exception Sys_error m -> `Error (false, "cannot write trace: " ^ m))
          | _ -> `Ok ()))

let graph_arg =
  let doc = "Graph specification (see rumor_run --help for the families)." in
  Arg.(required & opt (some string) None & info [ "g"; "graph" ] ~docv:"SPEC" ~doc)

let seed_arg =
  let doc = "Random seed (used by the random families)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let dot_arg =
  let doc = "Emit Graphviz DOT instead of statistics." in
  Arg.(value & flag & info [ "dot" ] ~doc)

let edges_arg =
  let doc = "Emit the edge-list format instead of statistics." in
  Arg.(value & flag & info [ "edges" ] ~doc)

let analysis_arg =
  let doc =
    "Also print random-walk analysis: spectral gap, conductance, and (on \
     small graphs) exact hitting and meeting times."
  in
  Arg.(value & flag & info [ "analysis" ] ~doc)

let timing_arg =
  let doc =
    "Print generation wall-clock, the CSR memory footprint, and the bytes \
     allocated while building (the streaming builders keep the latter close \
     to the former)."
  in
  Arg.(value & flag & info [ "timing" ] ~doc)

let trace_arg =
  let doc =
    "Record the builder's phase spans (edge generation, CSR fill, sort) to \
     $(docv): Chrome trace_event JSON, or rumor-trace/1 JSONL if $(docv) \
     ends in .jsonl.  Only the random families are traced."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let out_arg =
  let doc = "Write the output to this file instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "generate and inspect the graph families used by the experiments" in
  Cmd.v
    (Cmd.info "rumor_graphgen" ~version:"1.0.0" ~doc)
    Term.(
      ret
        (const run $ graph_arg $ seed_arg $ dot_arg $ edges_arg $ analysis_arg
       $ timing_arg $ trace_arg $ out_arg))

let () = exit (Cmd.eval cmd)
