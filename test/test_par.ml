(* Tests for Rumor_par.Pool and the determinism contract of parallel
   replication: any --jobs value must produce bit-identical measurements
   and sink streams (up to the per-rep timing fields). *)

module Pool = Rumor_par.Pool
module Rng = Rumor_prob.Rng
module Gen = Rumor_graph.Gen_basic
module Replicate = Rumor_sim.Replicate
module Protocol = Rumor_sim.Protocol
module Run_record = Rumor_obs.Run_record
module Stats = Rumor_prob.Stats

(* --- the pool itself -------------------------------------------------- *)

let test_init_matches_sequential () =
  let f i = (i * 37) mod 101 in
  let pool = Pool.create ~jobs:4 in
  Alcotest.(check (array int)) "init = Array.init" (Array.init 100 f)
    (Pool.init pool 100 f)

let test_map_matches_sequential () =
  let a = Array.init 64 (fun i -> i - 17) in
  let f x = (x * x) + 3 in
  let pool = Pool.create ~jobs:3 in
  Alcotest.(check (array int)) "map = Array.map" (Array.map f a)
    (Pool.map pool f a)

let test_more_jobs_than_items () =
  let pool = Pool.create ~jobs:8 in
  Alcotest.(check (array int)) "8 jobs, 3 items" [| 0; 2; 4 |]
    (Pool.init pool 3 (fun i -> 2 * i))

let test_empty_and_singleton () =
  let pool = Pool.create ~jobs:4 in
  Alcotest.(check (array int)) "empty" [||] (Pool.init pool 0 (fun i -> i));
  Alcotest.(check (array int)) "singleton" [| 7 |] (Pool.init pool 1 (fun _ -> 7))

let test_jobs_zero_resolves () =
  Alcotest.(check bool) "0 = all cores, at least one" true
    (Pool.jobs (Pool.create ~jobs:0) >= 1)

let test_negative_jobs_rejected () =
  try
    ignore (Pool.create ~jobs:(-2));
    Alcotest.fail "negative jobs accepted"
  with Invalid_argument _ -> ()

exception Boom of int

let test_exception_propagates () =
  let pool = Pool.create ~jobs:4 in
  match Pool.init pool 50 (fun i -> if i = 23 then raise (Boom i) else i) with
  | (_ : int array) -> Alcotest.fail "worker failure swallowed"
  | exception Boom 23 -> ()
  | exception Boom i -> Alcotest.fail (Printf.sprintf "wrong payload %d" i)

(* without a tracer, init_traced is init: every item sees [~trace:None] *)
let test_init_traced_untraced () =
  let pool = Pool.create ~jobs:3 in
  let traced = Array.make 50 true in
  let out =
    Pool.init_traced pool 50 (fun ~trace i ->
        traced.(i) <- Option.is_some trace;
        i * 3)
  in
  Alcotest.(check (array int)) "results in index order"
    (Array.init 50 (fun i -> i * 3)) out;
  Alcotest.(check bool) "no item saw a tracer" false
    (Array.exists Fun.id traced)

let test_negative_length_rejected () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs %d" jobs)
        (Invalid_argument "Pool.init: negative length")
        (fun () -> ignore (Pool.init (Pool.create ~jobs) (-1) Fun.id)))
    [ 1; 4 ]

(* a pool holds no workers between calls, so a failed call leaves it as
   usable as a fresh one *)
let test_reusable_after_failure () =
  let pool = Pool.create ~jobs:4 in
  (match Pool.init pool 40 (fun i -> if i = 5 then raise (Boom i) else i) with
  | (_ : int array) -> Alcotest.fail "worker failure swallowed"
  | exception Boom _ -> ());
  Alcotest.(check (array int)) "map after a failed init"
    (Array.init 40 (fun i -> i + 1))
    (Pool.map pool succ (Array.init 40 Fun.id));
  Alcotest.(check (array int)) "init again"
    (Array.init 40 (fun i -> 2 * i))
    (Pool.init pool 40 (fun i -> 2 * i))

(* --- jobs-invariance of Replicate ------------------------------------- *)

(* Serialize a record with its (inherently run-dependent) timing fields
   zeroed: everything else must be byte-identical across jobs settings. *)
let detimed_json (r : Run_record.t) =
  Run_record.to_json
    {
      r with
      Run_record.wall_seconds = 0.0;
      gc = { minor_words = 0.0; major_words = 0.0; promoted_words = 0.0 };
    }

let run_with ~jobs ~seed spec =
  let records = ref [] in
  let m =
    Replicate.broadcast_times
      ~sink:(fun r -> records := r :: !records)
      ~graph_name:"complete:24" ~jobs ~seed ~reps:6
      ~graph:(fun _rng -> (Gen.complete 24, 0))
      ~spec ~max_rounds:10_000 ()
  in
  (m, List.rev !records)

let check_jobs_invariant spec ~seed =
  let seq, seq_records = run_with ~jobs:1 ~seed spec in
  let par, par_records = run_with ~jobs:4 ~seed spec in
  Alcotest.(check (array (float 0.0))) "times identical" seq.Replicate.times
    par.Replicate.times;
  Alcotest.(check int) "capped identical" seq.Replicate.capped
    par.Replicate.capped;
  Alcotest.(check (float 0.0)) "mean identical"
    seq.Replicate.summary.Stats.mean par.Replicate.summary.Stats.mean;
  Alcotest.(check (list string)) "sink stream identical (sans timing)"
    (List.map detimed_json seq_records)
    (List.map detimed_json par_records)

let test_push_jobs_invariant () =
  check_jobs_invariant Protocol.push ~seed:401;
  check_jobs_invariant Protocol.push ~seed:402

let test_meet_exchange_jobs_invariant () =
  check_jobs_invariant (Protocol.meet_exchange ()) ~seed:403;
  check_jobs_invariant (Protocol.meet_exchange ()) ~seed:404

let test_sink_order_ascending_under_jobs () =
  let _, records = run_with ~jobs:4 ~seed:405 Protocol.push in
  Alcotest.(check (list int)) "reps arrive 0..5" [ 0; 1; 2; 3; 4; 5 ]
    (List.map (fun (r : Run_record.t) -> r.Run_record.rep) records)

let test_capped_fail_deterministic_under_jobs () =
  let capped ~trace:_ ~rep:_ rng =
    Rumor_protocols.Engine.push rng (Gen.path 50) ~source:0 ~max_rounds:2 ()
  in
  match Replicate.measure ~on_capped:`Fail ~jobs:4 ~seed:406 ~reps:5 capped with
  | (_ : Replicate.measurement) -> Alcotest.fail "expected Replicate.Capped"
  | exception Replicate.Capped { rep; rounds_run } ->
      Alcotest.(check int) "lowest capped rep raises" 0 rep;
      Alcotest.(check int) "cap recorded" 2 rounds_run

let suite =
  [
    Alcotest.test_case "init matches sequential" `Quick
      test_init_matches_sequential;
    Alcotest.test_case "map matches sequential" `Quick
      test_map_matches_sequential;
    Alcotest.test_case "more jobs than items" `Quick test_more_jobs_than_items;
    Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
    Alcotest.test_case "jobs 0 resolves to >= 1" `Quick test_jobs_zero_resolves;
    Alcotest.test_case "negative jobs rejected" `Quick
      test_negative_jobs_rejected;
    Alcotest.test_case "worker exception propagates" `Quick
      test_exception_propagates;
    Alcotest.test_case "init_traced without a tracer = init" `Quick
      test_init_traced_untraced;
    Alcotest.test_case "negative length rejected" `Quick
      test_negative_length_rejected;
    Alcotest.test_case "pool reusable after a failure" `Quick
      test_reusable_after_failure;
    Alcotest.test_case "push: jobs 4 = jobs 1" `Quick test_push_jobs_invariant;
    Alcotest.test_case "meet-exchange: jobs 4 = jobs 1" `Quick
      test_meet_exchange_jobs_invariant;
    Alcotest.test_case "sink order ascending under jobs" `Quick
      test_sink_order_ascending_under_jobs;
    Alcotest.test_case "on_capped:`Fail deterministic under jobs" `Quick
      test_capped_fail_deterministic_under_jobs;
  ]
