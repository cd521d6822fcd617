(* Timing, spans and the result of one job.

   Every span the benchmark records is opened here, from the benchmark's own
   code around a call into a library; the libraries never see a tracer.  A
   span's name starts with the layer it measures ("engine.push",
   "graph.build", ...), which is how Selftime attributes it. *)

module Clock = Rumor_obs.Clock
module Trace = Rumor_obs.Trace

let time f =
  let t0 = Clock.now_s () in
  let r = f () in
  (r, Clock.elapsed_s ~since:t0)

let span trace name f =
  match trace with
  | None -> f ()
  | Some tr ->
      Trace.begin_span tr name;
      let r = f () in
      Trace.end_span tr;
      r

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* One batch of calls into one layer inside a job: its wall time, the wall
   time of each protocol run in it (or of the whole cell, for a cell that
   times no run of its own) and the exact counts of work it did (rounds,
   contacts, rings, ...).  The counts must repeat exactly whenever the job
   is repeated. *)
type cell = {
  name : string;
  secs : float;
  units : float array;
  counts : (string * int) list;
}

type outcome = {
  cells : cell list;  (** in execution order *)
  attempted : int;  (** protocol runs started *)
  failed : int;  (** runs that hit their cap or failed the output check *)
  slack_words : float;
      (** how far the job's minor-heap allocation may differ between
          repeats; 0 unless it writes measured times as text *)
}

let count cell key = List.assoc key cell.counts

(* [run_cell trace name f] times [f ~timed] under a span named [name]; [f]
   returns the cell's exact counts and how many of its runs failed, and
   wraps each protocol run in [timed] to time it on its own.  The counts
   are also recorded as trace counters at the cell's end. *)
let run_cell trace name f =
  let units = ref [] in
  let timed g =
    let r, s = time g in
    units := s :: !units;
    r
  in
  let (counts, runs, failed), secs =
    span trace name (fun () ->
        let ((counts, _, _), _) as r = time (fun () -> f ~timed) in
        Option.iter
          (fun tr -> List.iter (fun (k, v) -> Trace.counter tr (name ^ "." ^ k) v) counts)
          trace;
        r)
  in
  let units = match !units with [] -> [| secs |] | us -> Array.of_list (List.rev us) in
  ({ name; secs; units; counts }, runs, failed)

let outcome_of cells =
  let cells, attempted, failed =
    List.fold_left
      (fun (cs, a, f) (c, runs, failed) -> (c :: cs, a + runs, f + failed))
      ([], 0, 0) cells
  in
  { cells = List.rev cells; attempted; failed; slack_words = 0.0 }

(* [per_op ~ops f] is the median ns per operation over five batches of
   [f ops], where [f k] performs [k] operations. *)
let per_op ~ops f =
  median
    (List.init 5 (fun _ ->
         let (), s = time (fun () -> f ops) in
         s *. 1e9 /. float_of_int ops))

