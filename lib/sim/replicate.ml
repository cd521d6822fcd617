module Rng = Rumor_prob.Rng
module Stats = Rumor_prob.Stats
module Graph = Rumor_graph.Graph
module Run_result = Rumor_protocols.Run_result
module Run_record = Rumor_obs.Run_record
module Trace = Rumor_obs.Trace
module Pool = Rumor_par.Pool

type measurement = {
  times : float array;
  capped : int;
  summary : Stats.summary;
}

exception Capped of { rep : int; rounds_run : int }

let () =
  Printexc.register_printer (function
    | Capped { rep; rounds_run } ->
        Some
          (Printf.sprintf
             "Rumor_sim.Replicate.Capped (rep %d hit the cap after %d rounds)"
             rep rounds_run)
    | _ -> None)

let measure ?(on_capped = `Keep) ?record ?(jobs = 1) ?trace ~seed ~reps f =
  if reps <= 0 then invalid_arg "Replicate.measure: reps <= 0";
  let master = Rng.of_int seed in
  (* One child generator per rep, split in rep order on the master before
     anything runs: the (seed, rep) -> stream assignment is fixed up front,
     so results are bit-identical however the pool schedules the reps. *)
  let rngs = Rng.split_n master reps in
  let pool = Pool.create ~jobs in
  (* [f] sees the tracer of whichever worker domain runs it (the pool forks
     one child tracer per spawned domain; see Pool.init_traced), bracketed
     in a per-rep span.  Tracing never touches the rep's generator, so
     traced and untraced measurements are bit-identical. *)
  let runs =
    Pool.init_traced ?trace ~label:"rep.chunk" pool reps (fun ~trace rep ->
        Trace.with_span trace ~arg:rep "rep" (fun () ->
            Run_record.timed (fun () -> f ~trace ~rep rngs.(rep))))
  in
  (* Ordered post-join pass: [record] fires in ascending rep order (a JSONL
     sink sees exactly the sequential stream, never interleaved), and under
     [`Fail] the raised rep is the lowest-numbered capped one, as it would
     be sequentially. *)
  let capped = ref 0 in
  let times =
    Array.init reps (fun rep ->
        let result, wall_seconds, gc = runs.(rep) in
        (match record with
        | Some r -> r ~rep ~result ~wall_seconds ~gc
        | None -> ());
        match result.Run_result.broadcast_time with
        | Some t -> float_of_int t
        | None -> (
            let rounds_run = result.Run_result.rounds_run in
            match on_capped with
            | `Fail -> raise (Capped { rep; rounds_run })
            | `Keep ->
                incr capped;
                float_of_int rounds_run))
  in
  { times; capped = !capped; summary = Stats.summarize times }

let broadcast_times ?on_capped ?sink ?(graph_name = "custom") ?jobs ?trace
    ?walkers ~seed ~reps ~graph ~spec ~max_rounds () =
  (* [graph rng] re-samples per replication inside [f]; each rep writes |V|
     to its own slot, read back by the rep-ordered record pass. *)
  let vertices = Array.make (max reps 1) 0 in
  let record =
    Option.map
      (fun sink ~rep ~result ~wall_seconds ~gc ->
        sink
          {
            Run_record.seed;
            rep;
            graph = graph_name;
            protocol = Protocol.name spec;
            vertices = vertices.(rep);
            broadcast_time = result.Run_result.broadcast_time;
            rounds_run = result.Run_result.rounds_run;
            capped = Option.is_none result.Run_result.broadcast_time;
            contacts = result.Run_result.contacts;
            informed_curve = result.Run_result.informed_curve;
            wall_seconds;
            gc;
          })
      sink
  in
  measure ?on_capped ?record ?jobs ?trace ~seed ~reps (fun ~trace ~rep rng ->
      let g, source = Trace.with_span trace "graph.build" (fun () -> graph rng) in
      vertices.(rep) <- Graph.n g;
      Protocol.run ?trace ?walkers spec rng g ~source ~max_rounds)

let mean m = m.summary.Stats.mean
let median m = m.summary.Stats.median
let max_time m = m.summary.Stats.max
