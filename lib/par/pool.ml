(* A deliberately small fork/join pool: [create] only fixes the parallelism
   degree; each [init]/[map] spawns its workers, drains a shared atomic
   counter in chunks, and joins everything before returning.  Spawning per
   call (rather than parking persistent workers on a condition variable)
   keeps teardown trivially correct — no domain outlives the call that
   needed it — and the spawn cost (~tens of microseconds per domain) is
   noise against the replication workloads this pool exists for. *)

module Trace = Rumor_obs.Trace

type t = { jobs : int }

let create ~jobs =
  if jobs < 0 then invalid_arg "Pool.create: jobs < 0";
  let jobs = if jobs = 0 then Domain.recommended_domain_count () else jobs in
  { jobs = max 1 jobs }

let jobs t = t.jobs

(* First failure wins; the losers of the compare-and-set race are dropped,
   and the remaining workers stop claiming new chunks. *)
type failure = { exn : exn; bt : Printexc.raw_backtrace }

(* lint: hot *)
let init_traced ?trace ?(label = "pool.chunk") t n f =
  if n < 0 then invalid_arg "Pool.init: negative length";
  if t.jobs = 1 || n <= 1 then
    (* Sequential execution still emits one span per item when traced, so a
       trace of a replicated run shows the same per-chunk spans at every
       jobs setting; untraced, this is exactly [Array.init n f]. *)
    match trace with
    | None -> Array.init n (fun i -> f ~trace i)
    | Some tr ->
        Array.init n (fun i ->
            Trace.begin_span tr ~arg:i label;
            match f ~trace i with
            | v ->
                Trace.end_span tr;
                v
            | exception exn ->
                let bt = Printexc.get_raw_backtrace () in
                Trace.end_span tr;
                Printexc.raise_with_backtrace exn bt)
  else begin
    let workers = min t.jobs n in
    (* Small chunks load-balance the heterogeneous per-item costs typical of
       simulation reps (capped runs cost orders of magnitude more than fast
       ones); one atomic increment per chunk is cheap at that granularity. *)
    let chunk = max 1 (n / (workers * 8)) in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make None in
    (* One tracer per worker: the caller keeps the parent's, each spawned
       domain gets a forked child it alone writes to, and the children are
       merged back strictly after their domains are joined. *)
    let children =
      match trace with
      | None -> [||]
      | Some parent ->
          Array.init (workers - 1) (fun w ->
              Trace.fork parent ~tid:(Trace.tid parent + w + 1))
    in
    let run_chunk tr start stop =
      match tr with
      | None ->
          for i = start to stop - 1 do
            (* lint: allow R10 — the Some wrapper is the slot's claimed mark *)
            results.(i) <- Some (f ~trace:None i)
          done
      | Some t' -> (
          Trace.begin_span t' ~arg:start label;
          match
            for i = start to stop - 1 do
              (* lint: allow R10 — the Some wrapper is the slot's claimed mark *)
              results.(i) <- Some (f ~trace:tr i)
            done
          with
          | () -> Trace.end_span t'
          | exception exn ->
              let bt = Printexc.get_raw_backtrace () in
              Trace.end_span t';
              Printexc.raise_with_backtrace exn bt)
    in
    let rec drain tr =
      let start = Atomic.fetch_and_add next chunk in
      if start < n && Option.is_none (Atomic.get failed) then begin
        run_chunk tr start (min n (start + chunk));
        drain tr
      end
    in
    let work tr () =
      (match tr with None -> () | Some t' -> Trace.begin_span t' "pool.worker");
      (try drain tr
       (* the first failure is stashed, then re-raised after every domain joins *)
       (* lint: allow R6 — stash-and-reraise-after-join, not a swallow *)
       with exn ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set failed None (Some { exn; bt })));
      match tr with None -> () | Some t' -> Trace.end_span t'
    in
    (match trace with
    | None -> ()
    | Some parent -> Trace.instant parent ~arg:workers "pool.fork");
    let domains =
      List.init (workers - 1) (fun w ->
          let tr =
            if Array.length children = 0 then None else Some children.(w)
          in
          Domain.spawn (work tr))
    in
    (* the calling domain is worker number [workers], so [jobs] really is
       the parallelism degree, not jobs + 1 *)
    work trace ();
    List.iter Domain.join domains;
    (match trace with
    | None -> ()
    | Some parent ->
        Array.iter (fun child -> Trace.join parent child) children;
        Trace.instant parent "pool.join");
    match Atomic.get failed with
    | Some { exn; bt } -> Printexc.raise_with_backtrace exn bt
    | None ->
        Array.map
          (function Some v -> v | None -> assert false (* unreachable: every
            index was claimed and no worker failed *))
          results
  end

let init t n f = init_traced t n (fun ~trace:_ i -> f i)
let map t f a = init t (Array.length a) (fun i -> f a.(i))
