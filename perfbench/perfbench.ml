(* The repository's fixed-seed benchmark.

     perfbench --workload gnp-sync|gnp-async|paper-figs --seed N
               --seconds S --trace 0|1 [--max-rounds R]

   One workload per process, on one domain.  A run builds the workload's
   inputs from --seed and runs the job once untimed, then for --seconds
   seconds repeats the set-up and the job, timing both; every repeat does
   exactly the same work.  The
   last line of stdout is one JSON object: with --trace 0 it carries the
   end-to-end metrics, with --trace 1 the per-layer metrics (see
   perfbench/README.md).  Every protocol run must finish its broadcast and
   every repeat must reproduce the exact counts of the first; otherwise the
   run counts the violation in "failed", reports "correct": false and exits
   1.  --max-rounds lowers the round cap (the time cap of the async
   kernels) to force that path.  Scratch files go to perfbench/_out. *)

module Graph = Rumor_graph.Graph
module Json = Rumor_obs.Json
module W = Workloads
open Measure

type args = {
  workload : string;
  seed : int;
  seconds : float;
  max_rounds : int;
  out : string;
}

(* ---------------------------------------------------------------- output *)

type metric = { key : string; value : float; unit_ : string; samples : int }

let print_result ~attempted ~failed metrics =
  Printf.printf "%-52s %16s  %-6s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun m -> Printf.printf "%-52s %16.6g  %-6s %d\n" m.key m.value m.unit_ m.samples)
    metrics;
  Printf.printf "fail_frac %g (%d failed of %d protocol runs attempted)\n"
    (float_of_int failed /. float_of_int (max attempted 1))
    failed attempted;
  let b = Buffer.create 8192 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (failed = 0) attempted failed;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b ", ";
      Json.buf_add_string_literal b m.key;
      Buffer.add_string b ": {\"value\": ";
      Json.buf_add_float b m.value;
      Buffer.add_string b ", \"unit\": ";
      Json.buf_add_string_literal b m.unit_;
      Buffer.add_char b '}')
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

(* ---------------------------------------------------------- the workload *)

let figs_out args =
  Filename.concat args.out (Printf.sprintf "paper-figs-runs-%d.jsonl" (Unix.getpid ()))

(* The workload's set-up, which returns its job. *)
let prepare args : unit -> ?trace:Trace.t -> unit -> outcome =
  let max_rounds = args.max_rounds in
  match args.workload with
  | "gnp-sync" ->
      fun () ->
        let env = W.Sync.setup args.seed in
        fun ?trace () -> W.Sync.job ?trace ~max_rounds env
  | "gnp-async" ->
      fun () ->
        let env = W.Async.setup args.seed in
        fun ?trace () -> W.Async.job ?trace ~max_rounds env
  | "paper-figs" ->
      fun () ->
        let env = W.Figs.setup args.seed in
        fun ?trace () -> fst (W.Figs.job ?trace ~max_rounds ~out:(figs_out args) env)
  | w -> invalid_arg ("unknown workload " ^ w)

let exact_counts o = List.map (fun (c : cell) -> (c.name, c.counts)) o.cells

type repeat = { o : outcome; setup : float; wall : float; minor : float; majors : int }

(* One repeat: the workload's set-up, then its job, each timed from a
   compacted heap so that every repeat starts from the same GC state.  The
   set-up is deterministic in the seed, so every job gets the same input. *)
let repeat prepare =
  Gc.compact ();
  let job, setup = time prepare in
  Gc.compact ();
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let o, wall = time (fun () -> job ?trace:None ()) in
  let minor = Gc.minor_words () -. minor0 in
  { o; setup; wall; minor; majors = (Gc.quick_stat ()).Gc.major_collections - major0 }

(* One untimed warm-up, then repeats until [seconds] have passed (at least
   three), so that the set-up and job samples both spread over the whole
   run.  Returns the repeats and the (attempted, failed) tally; a repeat
   whose exact counts or minor-heap allocation (beyond the job's slack)
   differ from the first repeat's is one more failure. *)
let timed_repeats ~seconds prepare =
  let warm = (prepare ()) ?trace:None () in
  let t0 = Clock.now_s () in
  let rec go acc =
    if List.length acc >= 3 && Clock.elapsed_s ~since:t0 >= seconds then List.rev acc
    else begin
      let r = repeat prepare in
      Printf.eprintf "repeat %d: setup %.4f s, job %.4f s\n%!" (List.length acc + 1)
        r.setup r.wall;
      go (r :: acc)
    end
  in
  let reps = go [] in
  let first = List.hd reps in
  let mismatches =
    List.length
      (List.filter
         (fun r ->
           let counts = exact_counts r.o = exact_counts first.o in
           let minor = Float.abs (r.minor -. first.minor) <= first.o.slack_words in
           if not counts then
             prerr_endline "FAIL a repeat's exact counts differ from the first's";
           if not minor then
             Printf.eprintf "FAIL a repeat allocated %.0f minor words, the first %.0f\n%!"
               r.minor first.minor;
           not (counts && minor))
         reps)
  in
  let sum f = List.fold_left (fun a r -> a + f r.o) 0 reps in
  ( reps,
    warm.attempted + sum (fun o -> o.attempted),
    warm.failed + mismatches + sum (fun o -> o.failed) )

(* The job's wall time with each timed unit (protocol run) at its best
   over the repeats.  Every repeat runs the same units on the same input in
   the same order, so their times differ only by the host's speed, which
   only ever slows a unit down. *)
let best_wall reps =
  let units r = Array.concat (List.map (fun (c : cell) -> c.units) r.o.cells) in
  match List.map units reps with
  | [] -> nan
  | u :: us -> Array.fold_left ( +. ) 0.0 (List.fold_left (Array.map2 Float.min) u us)

let peak_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6

(* ------------------------------------------------------ end-to-end run *)

let untraced_run args =
  let reps, attempted, failed = timed_repeats ~seconds:args.seconds (prepare args) in
  let n = List.length reps in
  List.iteri
    (fun i (c : cell) ->
      let secs = List.map (fun r -> (List.nth r.o.cells i).secs) reps in
      Printf.eprintf "cell %-40s median %.4f s  %s\n" c.name (median secs)
        (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) c.counts)))
    (List.hd reps).o.cells;
  Printf.printf "job wall: median %.4f s over %d repeats, %.4f s with each run at its best\n"
    (median (List.map (fun r -> r.wall) reps))
    n (best_wall reps);
  let metrics =
    [
      { key = "setup_s"; value = median (List.map (fun r -> r.setup) reps); unit_ = "s";
        samples = n };
      { key = "wall_s"; value = best_wall reps; unit_ = "s"; samples = n };
      { key = "peak_heap_mb"; value = peak_heap_mb (); unit_ = "MB"; samples = 1 };
    ]
  in
  (metrics, attempted, failed)

(* ------------------------------------------------------------ traced run *)

(* Per-layer values derived from one pass's cells and probes. *)
let layer_values ~(sync : W.Sync.env) ~sync_o ~async_o ~figs_o ~(figs : W.Figs.extra)
    ~probes =
  let gather = List.assoc "floor.gather_ns" (List.map (fun (n, v, _) -> (n, v)) probes) in
  let f = float_of_int in
  (* a kernel's rate, and the rate as a multiple of the random gather *)
  let rate (c : cell) name ns =
    [ (c.name ^ "." ^ name, ns, "ns"); (c.name ^ ".x_floor", ns /. gather, "x") ]
  in
  let engine =
    List.concat_map
      (fun c ->
        let rounds = count c "rounds" and contacts = count c "contacts" in
        let rate =
          match List.assoc_opt "agents" c.counts with
          | Some k -> rate c "ns_per_agent_step" (c.secs *. 1e9 /. f (k * rounds))
          | None -> rate c "ns_per_contact" (c.secs *. 1e9 /. f contacts)
        in
        rate
        @ [
            (c.name ^ ".s", c.secs, "s");
            (c.name ^ ".rounds", f rounds, "count");
            (c.name ^ ".contacts", f contacts, "count");
          ])
      sync_o.cells
  in
  let async =
    List.concat_map
      (fun c ->
        let rings = count c "rings" in
        rate c "ns_per_ring" (c.secs *. 1e9 /. f rings)
        @ [ (c.name ^ ".rings", f rings, "count") ])
      async_o.cells
  in
  let sim_s = List.fold_left (fun a c -> a +. c.secs) 0.0 figs_o.cells in
  let sim =
    List.map
      (fun c -> (c.name ^ ".ms_per_rep", c.secs *. 1e3 /. f (count c "reps"), "ms"))
      figs_o.cells
    @ [ ("sim.overhead_frac", (sim_s -. figs.W.Figs.rep_wall_s) /. sim_s, "frac") ]
  in
  let records = f (max 1 figs.W.Figs.records) in
  (* the graph layer's figures are totals over the gnp-sync graphs *)
  let total g = Array.fold_left (fun a gnp -> a +. g gnp) 0.0 sync.W.Sync.gnps in
  let build_s = total (fun gnp -> gnp.W.build_s) in
  List.concat
    [
      [
        ("graph.build_s", build_s, "s");
        ( "graph.build_ns_per_edge",
          build_s *. 1e9 /. total (fun gnp -> f (Graph.num_edges gnp.W.g)),
          "ns" );
        ("graph.check_s", total (fun gnp -> gnp.W.check_s), "s");
      ];
      engine;
      async;
      sim;
      [
        ("obs.emit_us_per_record", figs.W.Figs.emit_s *. 1e6 /. records, "us");
        ("obs.bytes_per_record", f figs.W.Figs.bytes /. records, "bytes");
      ];
      probes;
    ]

type pass = {
  tracer : Trace.t;
  values : (string * float * string) list;
  job_s : float;  (** traced wall of this run's own workload job *)
  attempted : int;
  failed : int;
}

(* One traced pass over every layer: the set-up and job of all three
   workloads, then the layer probes.  Each top-level step runs after a heap
   compaction that stays outside the spans. *)
let traced_pass args =
  let tracer = Trace.create ~hint:65_536 () in
  let trace = Some tracer in
  let max_rounds = args.max_rounds in
  let step name f =
    Gc.compact ();
    span trace name f
  in
  let sync = step "job.setup" (fun () -> W.Sync.setup ?trace args.seed) in
  let async = step "job.setup" (fun () -> W.Async.setup ?trace args.seed) in
  let figs = step "job.setup" (fun () -> W.Figs.setup ?trace args.seed) in
  let sync_o, sync_s =
    step "job.gnp-sync" (fun () -> time (fun () -> W.Sync.job ?trace ~max_rounds sync))
  in
  let async_o, async_s =
    step "job.gnp-async" (fun () -> time (fun () -> W.Async.job ?trace ~max_rounds async))
  in
  let (figs_o, figs_extra), figs_s =
    step "job.paper-figs" (fun () ->
        time (fun () -> W.Figs.job ?trace ~max_rounds ~out:(figs_out args) figs))
  in
  let g = sync.W.Sync.gnps.(0).W.g in
  let sparse_rounds alpha =
    let name = "engine.visit_exchange.sparse." ^ W.alpha_tag alpha in
    let c = List.find (fun c -> c.name = name) sync_o.cells in
    let _, _, seeds = List.find (fun (n, _, _) -> n = name) sync.W.Sync.runs in
    count c "rounds" / Array.length seeds
  in
  let probes =
    List.concat_map
      (fun probe -> step "job.probes" probe)
      [
        (fun () -> Probes.floor ?trace g);
        (fun () -> Probes.prob ?trace g ~seed:args.seed);
        (fun () -> Probes.agents ?trace g ~seed:args.seed);
        (fun () -> Probes.sparse_walkers ?trace g ~seed:args.seed ~rounds:sparse_rounds);
        (fun () ->
          Probes.des ?trace ~seed:args.seed (Graph.n async.W.Async.gnps.(0).W.g));
      ]
  in
  let outcomes = [ sync_o; async_o; figs_o ] in
  {
    tracer;
    values = layer_values ~sync ~sync_o ~async_o ~figs_o ~figs:figs_extra ~probes;
    job_s =
      (match args.workload with
      | "gnp-sync" -> sync_s
      | "gnp-async" -> async_s
      | _ -> figs_s);
    attempted = List.fold_left (fun a (o : outcome) -> a + o.attempted) 0 outcomes;
    failed = List.fold_left (fun a (o : outcome) -> a + o.failed) 0 outcomes;
  }

let passes = 2

(* The workload's own job untraced for half of --seconds (the baseline of
   the tracing overhead, and its GC work per job), then [passes] traced
   passes over every layer.  The spans are written out at the end and read
   back for the self-time split. *)
let traced_run args ~ticks0 =
  let reps, attempted, failed =
    timed_repeats ~seconds:(args.seconds /. 2.0) (prepare args)
  in
  let untraced_s = median (List.map (fun r -> r.wall) reps) in
  let ps = List.init passes (fun _ -> traced_pass args) in
  let splits =
    List.mapi
      (fun i p ->
        let path =
          Filename.concat args.out
            (Printf.sprintf "trace-%s-seed%d-pass%d.jsonl" args.workload args.seed i)
        in
        Trace.write_jsonl p.tracer path;
        match Trace.read_file path with
        | Ok file -> Selftime.split file.Trace.file_events
        | Error e -> failwith (path ^ ": " ^ e))
      ps
  in
  let med f = median (List.map f splits) in
  let n = List.length ps in
  let metric ?(samples = n) key unit_ value = { key; value; unit_; samples } in
  let values =
    (* every pass yields the same names in the same order *)
    List.map
      (fun (name, _, unit_) ->
        metric name unit_
          (median
             (List.map
                (fun p ->
                  let _, v, _ = List.find (fun (m, _, _) -> m = name) p.values in
                  v)
                ps)))
      (List.hd ps).values
  in
  let self =
    List.map
      (fun layer ->
        metric (layer ^ ".self_s") "s"
          (med (fun s -> List.assoc layer s.Selftime.self_us /. 1e6)))
      Selftime.layers
  in
  let gc =
    let r = List.hd reps in
    [
      metric ~samples:(List.length reps) "gc.minor_mwords" "Mwords" (r.minor /. 1e6);
      metric ~samples:(List.length reps) "gc.major_collections" "count"
        (median (List.map (fun r -> float_of_int r.majors) reps));
    ]
  in
  let trace_metrics =
    [
      metric "trace.wall_s" "s" (med (fun s -> s.Selftime.wall_us /. 1e6));
      metric "trace.unattributed_s" "s" (med (fun s -> s.Selftime.unattributed_us /. 1e6));
      metric "trace.overhead_s" "s" (median (List.map (fun p -> p.job_s) ps) -. untraced_s);
    ]
  in
  let machine =
    [
      metric ~samples:1 "machine.steal_frac" "frac" (Machine.steal_frac ~since:ticks0);
      metric ~samples:1 "machine.nproc" "count" (float_of_int (Machine.nproc ()));
    ]
  in
  let sum f = List.fold_left (fun a p -> a + f p) 0 ps in
  ( values @ self @ gc @ trace_metrics @ machine,
    attempted + sum (fun p -> p.attempted),
    failed + sum (fun p -> p.failed) )

(* ------------------------------------------------------------------ main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and traced = ref 0 in
  let max_rounds = ref 100_000 in
  let usage =
    "perfbench --workload gnp-sync|gnp-async|paper-figs --seed N --seconds S --trace \
     0|1 [--max-rounds R]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S how long to time repeats (default 10)");
      ("--trace", Arg.Set_int traced, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--max-rounds", Arg.Set_int max_rounds, "R round / time cap (default 100000)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    (not (List.mem !workload [ "gnp-sync"; "gnp-async"; "paper-figs" ]))
    || (not (List.mem !traced [ 0; 1 ]))
    || !seconds < 0.0 || !max_rounds < 1
  then begin
    prerr_endline usage;
    exit 2
  end;
  let args =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      max_rounds = !max_rounds;
      out = Filename.concat "perfbench" "_out";
    }
  in
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  mkdir_p args.out;
  let ticks0 = Machine.ticks () in
  Printf.printf "perfbench %s seed %d seconds %g trace %d\n" args.workload args.seed
    args.seconds !traced;
  Printf.printf "host: %s, nproc %d\n%!" (Machine.cpu_model ()) (Machine.nproc ());
  let metrics, attempted, failed =
    if !traced = 1 then traced_run args ~ticks0 else untraced_run args
  in
  Printf.printf "host steal_frac %.4f during the run\n" (Machine.steal_frac ~since:ticks0);
  print_result ~attempted ~failed metrics;
  exit (if failed = 0 then 0 else 1)
