(* rumor_run: run one protocol on one graph and report broadcast times.

   Examples:
     rumor_run --graph star:1000 --protocol push --reps 10
     rumor_run --graph double-star:512 --protocol push-pull --protocol visit-exchange
     rumor_run --graph random-regular:4096,12 --protocol meet-exchange --alpha 2 *)

open Cmdliner
module Rng = Rumor_prob.Rng
module Placement = Rumor_agents.Placement
module Protocol = Rumor_sim.Protocol
module Graph_spec = Rumor_sim.Graph_spec
module Replicate = Rumor_sim.Replicate
module Run_record = Rumor_obs.Run_record
module Trace = Rumor_obs.Trace
module Stats = Rumor_prob.Stats

(* .jsonl gets the streaming rumor-trace/1 form; anything else the Chrome
   trace_event JSON that Perfetto / chrome://tracing loads directly *)
let write_trace tr path =
  if Filename.check_suffix path ".jsonl" then Trace.write_jsonl tr path
  else Trace.write_chrome tr path

let protocol_of_string ~alpha ~laziness name =
  match
    Protocol.of_name ~agents:(Placement.Linear alpha) ~laziness
      (String.lowercase_ascii name)
  with
  | Some spec -> Ok spec
  | None ->
      Error
        (Printf.sprintf "unknown protocol %S (known: %s)" name
           (String.concat ", " Protocol.names))

let laziness_of_string = function
  | "off" -> Ok Protocol.Lazy_off
  | "on" -> Ok Protocol.Lazy_on
  | "auto" -> Ok Protocol.Lazy_auto
  | other -> Error (Printf.sprintf "bad laziness %S (off|on|auto)" other)

(* A generator rejects parameters outside its domain (cycle:0, an odd n*d
   for random-regular) with Invalid_argument; report it as a usage error. *)
let build_graph ?trace rng spec =
  match Graph_spec.build ?trace rng spec with
  | built -> Ok built
  | exception Invalid_argument m ->
      Error (Printf.sprintf "bad --graph %s: %s" (Graph_spec.to_string spec) m)

(* [Ok ()] if [ok] holds, else the formatted usage error *)
let require ok fmt = Printf.ksprintf (fun m -> if ok then Ok () else Error m) fmt

let run graph_text protocols source_override seed reps max_rounds alpha lazy_text
    show_curve metrics_path jobs walkers_text trace_path =
  let ( let* ) r f = match r with Ok v -> f v | Error m -> `Error (false, m) in
  let* spec = Graph_spec.parse graph_text in
  let* laziness = laziness_of_string lazy_text in
  let* () = require (reps >= 1) "bad --reps %d (want >= 1)" reps in
  let* () =
    require (max_rounds >= 0) "bad --max-rounds %d (want >= 0)" max_rounds
  in
  let* () =
    require
      (Float.is_finite alpha && alpha > 0.0)
      "bad --alpha %g (want finite > 0)" alpha
  in
  let* () = require (jobs >= 0) "bad --jobs %d (want >= 0; 0 = all cores)" jobs in
  let* walkers =
    Option.to_result (Protocol.walkers_of_string walkers_text)
      ~none:(Printf.sprintf "bad --walkers %S (dense|sparse|auto)" walkers_text)
  in
  let* protocol_specs =
    List.fold_left
      (fun acc name ->
        Result.bind acc (fun acc ->
            Result.map (fun p -> p :: acc) (protocol_of_string ~alpha ~laziness name)))
      (Ok []) (List.rev protocols)
  in
  let protocol_specs =
    match protocol_specs with [] -> [ Protocol.Push ] | specs -> specs
  in
  let* () =
    (* Protocol.run refuses this combination; say so before any work *)
    let combined = function Protocol.Combined _ -> true | _ -> false in
    require
      (not (walkers = Protocol.Sparse && List.exists combined protocol_specs))
      "bad --walkers %S (combined has dense walkers only)" walkers_text
  in
  let trace = Option.map (fun _ -> Trace.create ()) trace_path in
  (* describe the graph once; under --trace this probe build contributes the
     builder phase spans (edge-gen / CSR fill / sort) *)
  let probe_rng = Rng.of_int seed in
  let* g0, default_source = build_graph ?trace probe_rng spec in
  let* () =
    (* agents start from the walk's stationary law, which needs an edge *)
    let walks = function
      | Protocol.Visit_exchange _ | Meet_exchange _ | Combined _
      | Async_meet_exchange _ ->
          true
      | _ -> false
    in
    match List.find_opt walks protocol_specs with
    | Some p when Rumor_graph.Graph.num_edges g0 = 0 ->
        Error
          (Printf.sprintf "bad --graph %s for %s: agents need an edge to walk on"
             (Graph_spec.to_string spec) (Protocol.name p))
    | Some p -> (
        match Placement.count (Placement.Linear alpha) g0 with
        | _ -> Ok ()
        | exception Invalid_argument m ->
            Error
              (Printf.sprintf "bad --alpha %g for %s on --graph %s: %s" alpha
                 (Protocol.name p) (Graph_spec.to_string spec) m))
    | None -> Ok ()
  in
  Printf.printf "graph %s: %s\n" (Graph_spec.to_string spec)
    (Format.asprintf "%a" Rumor_graph.Graph.pp g0);
  let source = Option.value source_override ~default:default_source in
  if source < 0 || source >= Rumor_graph.Graph.n g0 then
    `Error (false, Printf.sprintf "source %d out of range" source)
  else begin
    Printf.printf "source %d, %d replication(s), seed %d, round cap %d\n\n" source
      reps seed max_rounds;
    let run_protocols sink =
      List.iter
        (fun p ->
          let graph rng =
            if Graph_spec.is_random spec then
              let g, s = Graph_spec.build rng spec in
              (g, Option.value source_override ~default:s)
            else (g0, source)
          in
          (* --curve prints replicate 0's curve, captured through the record
             sink so it belongs to one of the measured runs (an extra
             simulation with a fresh generator would belong to none). *)
          let rep0 = ref None in
          let sink =
            if not show_curve then sink
            else begin
              let capture (r : Run_record.t) =
                if r.Run_record.rep = 0 then rep0 := Some r
              in
              Some
                (match sink with
                | None -> capture
                | Some s ->
                    fun r ->
                      capture r;
                      s r)
            end
          in
          let m =
            Replicate.broadcast_times ?sink ?trace
              ~graph_name:(Graph_spec.to_string spec) ~jobs ~walkers ~seed
              ~reps ~graph ~spec:p ~max_rounds ()
          in
          let s = m.Replicate.summary in
          Printf.printf "%-14s mean %.1f  median %.1f  min %.0f  max %.0f%s\n"
            (Protocol.name p) s.Stats.mean s.Stats.median s.Stats.min s.Stats.max
            (if m.Replicate.capped > 0 then
               Printf.sprintf "  (%d/%d capped)" m.Replicate.capped reps
             else "");
          match (show_curve, !rep0) with
          | false, _ | true, None -> ()
          | true, Some r ->
              let curve = r.Run_record.informed_curve in
              Printf.printf "  curve %s"
                (Rumor_sim.Sparkline.render_ints ~width:50 curve);
              (match
                 Rumor_sim.Curve_stats.time_to_fraction_curve
                   ~completed:(r.Run_record.broadcast_time <> None)
                   curve 0.5
               with
              | Some h -> Printf.printf "  (50%% at round %d)" h
              | None -> ());
              Printf.printf "\n")
        protocol_specs
    in
    let finish_trace () =
      match (trace, trace_path) with
      | Some tr, Some path -> (
          match write_trace tr path with
          | () ->
              Printf.printf "wrote trace (%d events) to %s\n" (Trace.events tr)
                path;
              Ok ()
          | exception Sys_error m -> Error ("cannot write trace: " ^ m))
      | _ -> Ok ()
    in
    match metrics_path with
    | None -> (
        run_protocols None;
        match finish_trace () with Ok () -> `Ok () | Error m -> `Error (false, m))
    | Some path -> (
        match
          Run_record.with_jsonl_file path (fun sink -> run_protocols (Some sink))
        with
        | () -> (
            Printf.printf "\nwrote per-replicate metrics to %s\n" path;
            match finish_trace () with
            | Ok () -> `Ok ()
            | Error m -> `Error (false, m))
        | exception Sys_error m -> `Error (false, "cannot write metrics: " ^ m))
  end

let graph_arg =
  let doc =
    "Graph specification, e.g. star:1000, double-star:512, heavy-tree:11, \
     random-regular:4096,12.  Families: " ^ String.concat ", " Graph_spec.families
  in
  Arg.(required & opt (some string) None & info [ "g"; "graph" ] ~docv:"SPEC" ~doc)

let protocol_arg =
  let doc =
    "Protocol to run (repeatable): " ^ String.concat ", " Protocol.names
    ^ ".  The async-* protocols are continuous-time: --max-rounds caps their \
       time horizon."
  in
  Arg.(value & opt_all string [] & info [ "p"; "protocol" ] ~docv:"NAME" ~doc)

let source_arg =
  let doc = "Source vertex (default: the family's natural source)." in
  Arg.(value & opt (some int) None & info [ "source" ] ~docv:"V" ~doc)

let seed_arg =
  let doc = "Random seed; every output is a deterministic function of it." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let reps_arg =
  let doc = "Number of independent replications." in
  Arg.(value & opt int 5 & info [ "r"; "reps" ] ~docv:"N" ~doc)

let max_rounds_arg =
  let doc = "Round cap per replication (>= 0)." in
  Arg.(value & opt int 1_000_000 & info [ "max-rounds" ] ~docv:"N" ~doc)

let alpha_arg =
  let doc =
    "Agent density (finite, > 0): the agent-based protocols use \
     max(1, round(alpha * n)) agents."
  in
  Arg.(value & opt float 1.0 & info [ "alpha" ] ~docv:"A" ~doc)

let lazy_arg =
  let doc = "Laziness of the random walks: off, on, or auto (lazy iff bipartite)." in
  Arg.(value & opt string "auto" & info [ "lazy" ] ~docv:"MODE" ~doc)

let curve_arg =
  let doc = "Also print replicate 0's informed-count curve." in
  Arg.(value & flag & info [ "curve" ] ~doc)

let metrics_arg =
  let doc =
    "Write one JSONL record per replicate (seed, informed curve, wall-clock, \
     GC counters) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Run replications on $(docv) domains (0 = all cores).  Results and \
     metrics are bit-identical for every value; only wall-clock changes."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let walkers_arg =
  let doc =
    "The walker representation for visit-exchange and meet-exchange: \
     dense (per-agent positions), sparse (count-compressed per-vertex \
     occupancy — seed-deterministic, a different sample path than dense; \
     required for 10^7 agents), or auto (sparse above the agent-count \
     threshold).  Combined runs dense walkers only and rejects sparse.  \
     Async-meet-exchange has one kernel, so every mode gives it the same \
     run."
  in
  Arg.(value & opt string "dense" & info [ "walkers" ] ~docv:"MODE" ~doc)

let trace_arg =
  let doc =
    "Record an execution trace (spans, counters, per-worker tracks) to \
     $(docv): Chrome trace_event JSON by default (load in Perfetto or \
     chrome://tracing), or rumor-trace/1 JSONL if $(docv) ends in .jsonl.  \
     Inspect with rumor_report trace.  Results are unchanged by tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "run rumor-spreading protocols on a graph" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Simulates the protocols of Giakkoupis, Mallmann-Trenn and Saribekyan, \
         \"How to Spread a Rumor: Call Your Neighbors or Take a Walk?\" (PODC \
         2019) on a chosen graph and reports broadcast-time statistics.";
    ]
  in
  Cmd.v
    (Cmd.info "rumor_run" ~version:"1.0.0" ~doc ~man)
    Term.(
      ret
        (const run $ graph_arg $ protocol_arg $ source_arg $ seed_arg $ reps_arg
       $ max_rounds_arg $ alpha_arg $ lazy_arg $ curve_arg $ metrics_arg
       $ jobs_arg $ walkers_arg $ trace_arg))

let () = exit (Cmd.eval cmd)
