(* rumor_experiments: run the paper-reproduction experiment suite.

   Examples:
     rumor_experiments --list
     rumor_experiments E1 E2 --profile quick
     rumor_experiments --profile full --csv-dir results/ *)

open Cmdliner
module Experiments = Rumor_sim.Experiments
module Table = Rumor_sim.Table
module Clock = Rumor_obs.Clock
module Trace = Rumor_obs.Trace

let write_trace tr path =
  if Filename.check_suffix path ".jsonl" then Trace.write_jsonl tr path
  else Trace.write_chrome tr path

let list_experiments () =
  List.iter
    (fun (e : Experiments.t) ->
      Printf.printf "%-4s %-45s [%s]\n" e.Experiments.id e.Experiments.title
        e.Experiments.paper_ref)
    Experiments.all

let sanitize s =
  String.map (fun c -> if c = ' ' || c = '/' || c = ':' then '_' else c) s

let write_markdown_report path profile seed elapsed results =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "# EXPERIMENTS: paper vs. measured\n\n";
  Buffer.add_string buf
    "Generated by `rumor_experiments --markdown` — every table below is the \
     measured reproduction of one figure panel, theorem, or remark of\n\
     Giakkoupis, Mallmann-Trenn & Saribekyan, *How to Spread a Rumor: Call \
     Your Neighbors or Take a Walk?* (PODC 2019).\n\
     Shapes (who wins, growth exponents, bounded ratios) are the reproduction \
     target; absolute constants are implementation-specific.\n\n";
  Buffer.add_string buf
    (Printf.sprintf "Profile: `%s`, seed %d, wall-clock %.1fs.\n\n"
       (match profile with Experiments.Quick -> "quick" | Experiments.Full -> "full")
       seed elapsed);
  List.iter
    (fun ((e : Experiments.t), tables) ->
      Buffer.add_string buf
        (Printf.sprintf "## %s: %s — %s\n\n" e.Experiments.id e.Experiments.title
           e.Experiments.paper_ref);
      List.iter
        (fun t ->
          Buffer.add_string buf (Table.to_markdown t);
          Buffer.add_char buf '\n')
        tables)
    results;
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote markdown report to %s\n" path

let print_experiment csv_dir (e : Experiments.t) tables =
  Printf.printf "\n### %s: %s [%s]\n\n" e.Experiments.id e.Experiments.title
    e.Experiments.paper_ref;
  List.iteri
    (fun i t ->
      Table.print t;
      print_newline ();
      match csv_dir with
      | None -> ()
      | Some dir ->
          if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
          let path =
            Filename.concat dir
              (Printf.sprintf "%s_%d_%s.csv" e.Experiments.id i
                 (sanitize e.Experiments.title))
          in
          let oc = open_out path in
          output_string oc (Table.to_csv t);
          close_out oc)
    tables

let run list_only profile_text seed csv_dir markdown metrics jobs walkers_text
    trace_path ids =
  if list_only then begin
    list_experiments ();
    `Ok ()
  end
  else if jobs < 0 then
    `Error (false, Printf.sprintf "bad --jobs %d (want >= 0; 0 = all cores)" jobs)
  else begin
    match Rumor_sim.Protocol.walkers_of_string walkers_text with
    | None ->
        `Error
          (false, Printf.sprintf "bad --walkers %S (dense|sparse|auto)" walkers_text)
    | Some walkers -> (
    let profile =
      match profile_text with
      | "quick" -> Ok Experiments.Quick
      | "full" -> Ok Experiments.Full
      | other -> Error (Printf.sprintf "bad profile %S (quick|full)" other)
    in
    match profile with
    | Error m -> `Error (false, m)
    | Ok profile -> (
        match Experiments.select ids walkers with
        | exception Invalid_argument m -> `Error (false, m)
        | selected -> (
        try
          let started = Clock.now_s () in
          let trace = Option.map (fun _ -> Trace.create ()) trace_path in
          (* each experiment's tables go out as soon as it finishes, so a
             long run redirected to a file shows its progress *)
          let run_selected metrics =
            let cfg = { Rumor_sim.Sweep.metrics; jobs; walkers; trace } in
            List.map
              (fun e ->
                let tables = Experiments.run_one cfg profile ~seed e in
                print_experiment csv_dir e tables;
                flush stdout;
                (e, tables))
              selected
          in
          let results =
            match metrics with
            | None -> run_selected None
            | Some path ->
                Rumor_obs.Run_record.with_jsonl_file path (fun sink ->
                    run_selected (Some sink))
          in
          (match (trace, trace_path) with
          | Some tr, Some path ->
              write_trace tr path;
              Printf.printf "wrote trace (%d events) to %s\n" (Trace.events tr)
                path
          | _ -> ());
          (match metrics with
          | Some path -> Printf.printf "wrote per-replicate metrics to %s\n" path
          | None -> ());
          let elapsed = Clock.elapsed_s ~since:started in
          (match markdown with
          | Some path -> write_markdown_report path profile seed elapsed results
          | None -> ());
          Printf.printf "\ndone in %.1fs (profile %s, seed %d)\n" elapsed
            (match profile with Experiments.Quick -> "quick" | Experiments.Full -> "full")
            seed;
          `Ok ()
        with Sys_error m -> `Error (false, "cannot write metrics: " ^ m))))
  end

let list_arg =
  let doc = "List the available experiments and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let profile_arg =
  let doc =
    "Experiment profile: quick (seconds) or full (the full grids, minutes; \
     --markdown FILE writes their report)."
  in
  Arg.(value & opt string "quick" & info [ "profile" ] ~docv:"P" ~doc)

let seed_arg =
  let doc = "Random seed for the whole suite." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let csv_arg =
  let doc = "Also write each table as CSV into this directory." in
  Arg.(value & opt (some string) None & info [ "csv-dir" ] ~docv:"DIR" ~doc)

let markdown_arg =
  let doc = "Also write a markdown paper-vs-measured report to this file." in
  Arg.(value & opt (some string) None & info [ "markdown" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Also write one JSONL record per replication of every measured cell \
     (graph label TABLE/ROW such as E6b/512 (9), protocol, informed curve, \
     wall-clock, GC counters) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Run each cell's replications on $(docv) domains (0 = all cores).  \
     Tables and metrics are bit-identical for every value."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let walkers_arg =
  let doc =
    "The walker representation for the agent-based cells: dense (default), \
     sparse or auto (count-compressed occupancy; seed-deterministic, gated \
     distributionally by A10).  A10 always measures both representations \
     regardless of this flag; E10's combined protocol rejects sparse."
  in
  Arg.(value & opt string "dense" & info [ "walkers" ] ~docv:"MODE" ~doc)

let trace_arg =
  let doc =
    "Record an execution trace of the whole suite (one span per experiment, \
     per-rep and per-round spans below) to $(docv): Chrome trace_event JSON, \
     or rumor-trace/1 JSONL if $(docv) ends in .jsonl.  Inspect with \
     rumor_report trace."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let ids_arg =
  let doc =
    "Experiment ids to run (default: all): "
    ^ String.concat ", " (List.map (fun (e : Experiments.t) -> e.id) Experiments.all)
    ^ "."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let cmd =
  let doc = "reproduce the paper's figures and theorems as measured tables" in
  Cmd.v
    (Cmd.info "rumor_experiments" ~version:"1.0.0" ~doc)
    Term.(
      ret
        (const run $ list_arg $ profile_arg $ seed_arg $ csv_arg $ markdown_arg
       $ metrics_arg $ jobs_arg $ walkers_arg $ trace_arg
       $ ids_arg))

let () = exit (Cmd.eval cmd)
