(* Tests for Rumor_protocols.Async_engine beyond the golden digests
   (test_golden.ml): the superposed-clock kernels against the exact
   broadcast-time law on K_n, meet-exchange against the exact law of its
   brute-force chain on tiny graphs, walker modes and obs against each
   other, determinism of results and observation streams, runs complete at
   time 0, the sparse path, projection and validation. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Gen_random = Rumor_graph.Gen_random
module Placement = Rumor_agents.Placement
module P = Rumor_protocols
module Async_engine = Rumor_protocols.Async_engine
module Instrument = Rumor_obs.Instrument
module Trace = Rumor_obs.Trace

let families () =
  [
    ("complete16", Gen.complete 16);
    ("torus6x6", Gen.torus ~rows:6 ~cols:6);
    ("path12", Gen.path 12);
    ("star9", Gen.star ~leaves:9);
    ("er40", Gen_random.erdos_renyi (Rng.of_int 4242) ~n:40 ~p:0.15);
    ("reg3x20", Gen_random.random_regular_connected (Rng.of_int 777) ~n:20 ~d:3);
  ]

let seeds = [ 1; 42; 9001 ]

let check_push_result label (a : P.Async_push.result) (b : P.Async_push.result) =
  Alcotest.(check (option (float 0.0)))
    (label ^ ": broadcast_time") a.P.Async_push.broadcast_time
    b.P.Async_push.broadcast_time;
  Alcotest.(check int) (label ^ ": rings") a.P.Async_push.rings b.P.Async_push.rings;
  Alcotest.(check int)
    (label ^ ": informed") a.P.Async_push.informed b.P.Async_push.informed;
  Alcotest.(check (array int))
    (label ^ ": curve") a.P.Async_push.curve b.P.Async_push.curve

let check_meet_result label (a : P.Async_meet_exchange.result)
    (b : P.Async_meet_exchange.result) =
  Alcotest.(check (option (float 0.0)))
    (label ^ ": broadcast_time") a.P.Async_meet_exchange.broadcast_time
    b.P.Async_meet_exchange.broadcast_time;
  Alcotest.(check int)
    (label ^ ": rings") a.P.Async_meet_exchange.rings b.P.Async_meet_exchange.rings;
  Alcotest.(check int)
    (label ^ ": informed") a.P.Async_meet_exchange.informed
    b.P.Async_meet_exchange.informed;
  Alcotest.(check int)
    (label ^ ": agents") a.P.Async_meet_exchange.agents b.P.Async_meet_exchange.agents;
  Alcotest.(check (array int))
    (label ^ ": curve") a.P.Async_meet_exchange.curve b.P.Async_meet_exchange.curve

(* records the exact hook-event sequence, not just counts *)
let stream_obs () =
  let events = ref [] in
  let obs =
    Instrument.make
      ~on_contact:(fun u v -> events := (0, u, v, 0) :: !events)
      ~on_walker_move:(fun ~agent ~from_ ~to_ ->
        events := (1, agent, from_, to_) :: !events)
      ()
  in
  (obs, events)

(* ---------------------------------------- absorption times, uniformized *)

(* A finite continuous-time chain in uniformized form: it jumps at the
   rings of a rate-[lam] Poisson clock, each jump one step of the discrete
   chain [step] ((target, probability) pairs summing to 1, self-loops
   included); [init] is the law at time 0 and [absorbed] marks the
   absorbing states, whose [step] is ignored. *)
type chain = {
  lam : float;
  init : float array;
  step : (int * float) list array;
  absorbed : bool array;
}

(* P(T <= t) for the absorption time T, by uniformization:
   P(T <= t) = sum_j Poisson(j; lam t) * p_j, with p_j = P(the discrete
   chain is absorbed within j steps).  The p_j are computed once, up to the
   J with 1 - p_J < 1e-13, and held at p_J beyond it; the Poisson weights
   are formed in log space, so a large lam t cannot underflow them all.
   The law has an atom p_0 at t = 0 when [init] puts mass on absorbed
   states. *)
let absorption_cdf c =
  let states = Array.length c.init in
  let absorbed_mass d =
    let acc = ref 0.0 in
    Array.iteri (fun s q -> if c.absorbed.(s) then acc := !acc +. q) d;
    !acc
  in
  let d = ref (Array.copy c.init) in
  let ps = ref [ absorbed_mass !d ] in
  let steps = ref 0 in
  while 1.0 -. List.hd !ps >= 1e-13 do
    incr steps;
    if !steps > 1_000_000 then invalid_arg "absorption_cdf: no absorption";
    let d' = Array.make states 0.0 in
    Array.iteri
      (fun s q ->
        if c.absorbed.(s) then d'.(s) <- d'.(s) +. q
        else List.iter (fun (s', r) -> d'.(s') <- d'.(s') +. (q *. r)) c.step.(s))
      !d;
    d := d';
    ps := absorbed_mass d' :: !ps
  done;
  let p = Array.of_list (List.rev !ps) in
  let last = Array.length p - 1 in
  fun t ->
    if t < 0.0 then 0.0
    else begin
      let lt = c.lam *. t in
      let acc = ref 0.0 and mass = ref 0.0 and log_w = ref (-.lt) in
      for j = 0 to last do
        let w = exp !log_w in
        acc := !acc +. (w *. p.(j));
        mass := !mass +. w;
        log_w := !log_w +. log lt -. log (float_of_int (j + 1))
      done;
      !acc +. (Float.max 0.0 (1.0 -. !mass) *. p.(last))
    end

(* -------------------------------------------- K_n: the exact law *)

(* On K_n with i informed vertices the next informing happens at total
   rate i(n-i)/(n-1) under async push (each informed vertex rings at rate 1
   and hits one of the n-i uninformed among its n-1 neighbours) and
   2i(n-i)/(n-1) under push-pull (uninformed ringers pull from an informed
   neighbour at the same total rate).  The broadcast time is the
   absorption time of that pure-birth chain. *)
let kn_rates ~n variant =
  let factor =
    match variant with P.Async_push.Async_push -> 1.0 | Async_push_pull -> 2.0
  in
  Array.init (n - 1) (fun idx ->
      let i = float_of_int (idx + 1) in
      factor *. i *. (float_of_int n -. i) /. float_of_int (n - 1))

(* the pure-birth chain on i = 1..n informed vertices, uniformized at
   the largest rate: state i advances with probability rate_i / L *)
let kn_cdf rates =
  let states = Array.length rates + 1 in
  let lam = Array.fold_left Float.max 0.0 rates in
  absorption_cdf
    {
      lam;
      init = Array.init states (fun s -> if s = 0 then 1.0 else 0.0);
      step =
        Array.init states (fun s ->
            if s = states - 1 then []
            else
              let q = rates.(s) /. lam in
              [ (s + 1, q); (s, 1.0 -. q) ]);
      absorbed = Array.init states (fun s -> s = states - 1);
    }

(* the oracle itself: its mean, integral of 1 - F, matches sum 1/rate_i *)
let test_kn_oracle () =
  List.iter
    (fun n ->
      let rates = kn_rates ~n P.Async_push.Async_push in
      let exact = Array.fold_left (fun a r -> a +. (1.0 /. r)) 0.0 rates in
      let cdf = kn_cdf rates in
      let dt = 0.005 and horizon = 60.0 in
      let steps = int_of_float (horizon /. dt) in
      let integral = ref 0.0 in
      for s = 0 to steps - 1 do
        let t = (float_of_int s +. 0.5) *. dt in
        integral := !integral +. ((1.0 -. cdf t) *. dt)
      done;
      Alcotest.(check (float 1e-3)) (Printf.sprintf "K_%d mean" n) exact !integral)
    [ 4; 8 ]

(* Family-wise false-alarm rate 10^-3 over the K_n matrix (n in {8, 16} x
   {push, push-pull}): Bonferroni, each cell tests at 10^-3 / 4. *)
let kn_sizes = [ 8; 16 ]
let kn_alpha = 1e-3 /. 4.0
let kn_runs = 400

let check_kn_law variant () =
  List.iter
    (fun n ->
      let g = Gen.complete n in
      let times =
        Array.init kn_runs (fun rep ->
            let r =
              Async_engine.push (Rng.of_int (1000 + rep)) g ~variant ~source:0
                ~max_time:1e6
            in
            match r.P.Async_push.broadcast_time with
            | Some t -> t
            | None -> Alcotest.fail "K_n run did not complete")
      in
      let rates = kn_rates ~n variant in
      let d = Ks.one_sample times (kn_cdf rates) in
      let crit = Ks.threshold ~alpha:kn_alpha ~m:(float_of_int kn_runs) in
      Alcotest.(check bool)
        (Printf.sprintf "K_%d: KS D = %.4f <= %.4f" n d crit)
        true (d <= crit))
    kn_sizes

(* ------------------------------------ meet-exchange: the exact law *)

(* Meet-exchange as a brute-force chain over (agent positions, informed
   mask, source-active flag), written from the rules, not from the
   kernel's one-bit-per-vertex invariant.  Placement: each agent
   independently at v with probability deg v / 2m (Stationary k), then the
   t = 0 hand-off: if agents sit on the source they all learn the rumour,
   otherwise the source stays active.  One ring: a uniform agent, which
   stays with probability 1/2 on a lazy walk and otherwise moves to a
   uniform neighbour slot; then everyone at the arrival vertex learns the
   rumour if one of them knows it or the source is active there, which
   deactivates it.  The rings come at rate k, so the chain is uniformized
   at lam = k. *)
let meet_chain g ~k ~lazy_walk ~source =
  let full = (1 lsl k) - 1 in
  let index = Hashtbl.create 1024 and found = Queue.create () in
  let id st =
    match Hashtbl.find_opt index st with
    | Some i -> i
    | None ->
        let i = Hashtbl.length index in
        Hashtbl.add index st i;
        Queue.push (i, st) found;
        i
  in
  (* the state after the agents at [v] have met *)
  let arrive pos mask active v =
    let here = ref 0 in
    Array.iteri (fun a p -> if p = v then here := !here lor (1 lsl a)) pos;
    let hit = active && v = source && !here <> 0 in
    let mask = if mask land !here <> 0 || hit then mask lor !here else mask in
    id (pos, mask, active && not hit)
  in
  let two_m = float_of_int (Graph.total_degree g) in
  let init = ref [] in
  let rec place pos prob =
    if Array.length pos = k then init := (arrive pos 0 true source, prob) :: !init
    else
      for v = 0 to Graph.n g - 1 do
        place
          (Array.append pos [| v |])
          (prob *. float_of_int (Graph.degree g v) /. two_m)
      done
  in
  place [||] 1.0;
  let steps = Hashtbl.create 1024 in
  while not (Queue.is_empty found) do
    let i, (pos, mask, active) = Queue.pop found in
    let moves = ref [] in
    if mask <> full then
      for a = 0 to k - 1 do
        let u = pos.(a) in
        let d = Graph.degree g u in
        let go v q =
          let pos = Array.copy pos in
          pos.(a) <- v;
          moves := (arrive pos mask active v, q /. float_of_int k) :: !moves
        in
        if lazy_walk then go u 0.5;
        let q = (if lazy_walk then 0.5 else 1.0) /. float_of_int d in
        for slot = 0 to d - 1 do
          go (Graph.neighbor g u slot) q
        done
      done;
    Hashtbl.replace steps i !moves
  done;
  let count = Hashtbl.length index in
  let init_law = Array.make count 0.0 in
  List.iter (fun (i, q) -> init_law.(i) <- init_law.(i) +. q) !init;
  let absorbed = Array.make count false in
  Hashtbl.iter (fun (_, mask, _) i -> absorbed.(i) <- mask = full) index;
  {
    lam = float_of_int k;
    init = init_law;
    step = Array.init count (Hashtbl.find steps);
    absorbed;
  }

(* the oracle itself: k = 2 on K_2 without laziness is a pure race — the
   placement is (src, src) w.p. 1/4, informing both at t = 0; (src, other)
   or (other, src) w.p. 1/2, done at the first ring, Exp(2); (other, other)
   w.p. 1/4, whose first ring moves an agent onto the active source and the
   second ring informs the other: Exp(2) + Exp(2) *)
let test_meet_oracle () =
  let cdf =
    absorption_cdf
      (meet_chain (Gen.complete 2) ~k:2 ~lazy_walk:false ~source:0)
  in
  List.iter
    (fun t ->
      let e = exp (-2.0 *. t) in
      let exact =
        0.25 +. (0.5 *. (1.0 -. e)) +. (0.25 *. (1.0 -. e -. (2.0 *. t *. e)))
      in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "F(%g)" t) exact (cdf t))
    [ 0.0; 0.1; 0.5; 1.0; 2.5; 7.0 ]

(* The cells: k in {2, 3} on K_4, C_5, lazy P_3 and the 3-leaf star (a
   bipartite graph walked without laziness: the continuous clocks, not a
   stay coin, break its parity), source 0.  Family-wise false-alarm rate
   10^-3 over 8 cells x 2 walker modes: Bonferroni, each test at 10^-3 / 16.
   Each mode draws its own 1000 fixed seeds. *)
let meet_law_graphs () =
  [
    ("K_4", Gen.complete 4, false);
    ("C_5", Gen.cycle 5, false);
    ("lazy P_3", Gen.path 3, true);
    ("star3", Gen.star ~leaves:3, false);
  ]

let meet_law_runs = 1000
let meet_law_alpha = 1e-3 /. 16.0

let test_meet_exchange_law () =
  List.iteri
    (fun gi (name, g, lazy_walk) ->
      List.iter
        (fun k ->
          let cdf = absorption_cdf (meet_chain g ~k ~lazy_walk ~source:0) in
          (* the atom at t = 0 is the only jump of the law *)
          let cdf_left t = if t > 0.0 then cdf t else 0.0 in
          List.iteri
            (fun wi walkers ->
              (* a block of seeds of its own per (graph, k, mode) *)
              let salt = 100_000 * (1 + (4 * gi) + (2 * (k - 2)) + wi) in
              let times =
                Array.init meet_law_runs (fun rep ->
                    let r =
                      Async_engine.meet_exchange ~walkers ~lazy_walk
                        (Rng.of_int (salt + rep)) g ~source:0
                        ~agents:(Placement.Stationary k) ~max_time:1e6
                    in
                    match r.P.Async_meet_exchange.broadcast_time with
                    | Some t -> t
                    | None -> Alcotest.fail (name ^ ": run did not complete"))
              in
              let d = Ks.one_sample ~cdf_left times cdf in
              let crit =
                Ks.threshold ~alpha:meet_law_alpha ~m:(float_of_int meet_law_runs)
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s k=%d %s: KS D = %.4f <= %.4f" name k
                   (P.Sparse_walkers.mode_to_string walkers)
                   d crit)
                true (d <= crit))
            [ P.Sparse_walkers.Dense; P.Sparse_walkers.Sparse ])
        [ 2; 3 ])
    (meet_law_graphs ())

(* ------------------------------------------------------- determinism *)

(* Same seed, same run: result and the full obs stream; a trace attached
   to the second run must not change either (it never draws). *)
let test_same_seed_same_run () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          List.iter
            (fun variant ->
              let run trace =
                let obs, events = stream_obs () in
                let r =
                  Async_engine.push ~obs ?trace (Rng.of_int seed) g ~variant ~source:0
                    ~max_time:1e6
                in
                (r, !events)
              in
              let a, a_events = run None in
              let b, b_events = run (Some (Trace.create ())) in
              let label = Printf.sprintf "%s seed=%d" name seed in
              check_push_result label a b;
              Alcotest.(check bool) (label ^ ": obs stream") true (a_events = b_events))
            [ P.Async_push.Async_push; P.Async_push.Async_push_pull ];
          List.iter
            (fun agents ->
              let run trace =
                let obs, events = stream_obs () in
                let r =
                  Async_engine.meet_exchange ~obs ?trace (Rng.of_int seed) g ~source:0
                    ~agents ~max_time:20_000.0
                in
                (r, !events)
              in
              let a, a_events = run None in
              let b, b_events = run (Some (Trace.create ())) in
              let label = Printf.sprintf "me %s seed=%d" name seed in
              check_meet_result label a b;
              Alcotest.(check bool) (label ^ ": obs stream") true (a_events = b_events))
            [ Placement.Stationary 12; Placement.One_per_vertex ])
        seeds)
    (families ())

(* Async push rings only informed vertices: every contact's caller is
   informed when it calls. *)
let test_push_rings_informed_only () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let informed = Array.make (Graph.n g) false in
          informed.(0) <- true;
          let obs =
            Instrument.make
              ~on_contact:(fun u v ->
                if not informed.(u) then
                  Alcotest.failf "%s seed=%d: uninformed %d rang" name seed u;
                informed.(v) <- true)
              ()
          in
          let r =
            Async_engine.push ~obs (Rng.of_int seed) g ~variant:P.Async_push.Async_push
              ~source:0 ~max_time:1e6
          in
          Alcotest.(check int)
            (Printf.sprintf "%s seed=%d: informed" name seed)
            (Array.fold_left (fun a b -> if b then a + 1 else a) 0 informed)
            r.P.Async_push.informed)
        seeds)
    (families ())

(* --------------------------------------------------- complete at t = 0 *)

(* A run complete before its first ring reports Some 0.0 and no rings,
   and draws nothing after the clock split and the placement: the run
   generator is left where those two leave it. *)
let test_complete_at_zero () =
  let after_setup ?place seed =
    let rng = Rng.of_int seed in
    ignore (Rng.split rng);
    Option.iter (fun f -> f rng) place;
    Rng.bits64 rng
  in
  let k1 = Gen.complete 1 in
  List.iter
    (fun (vname, variant) ->
      let rng = Rng.of_int 5 in
      let r = Async_engine.push rng k1 ~variant ~source:0 ~max_time:10.0 in
      Alcotest.(check (option (float 0.0)))
        (vname ^ " K_1: broadcast_time") (Some 0.0) r.P.Async_push.broadcast_time;
      Alcotest.(check int) (vname ^ " K_1: rings") 0 r.P.Async_push.rings;
      Alcotest.(check (array int)) (vname ^ " K_1: curve") [| 1 |] r.P.Async_push.curve;
      Alcotest.(check int64) (vname ^ " K_1: no ringer drawn") (after_setup 5)
        (Rng.bits64 rng))
    [ ("push", P.Async_push.Async_push); ("push-pull", P.Async_push.Async_push_pull) ];
  let g = Gen.complete 8 in
  let agents = Placement.All_at (0, 5) in
  List.iter
    (fun (wname, walkers) ->
      let obs, events = stream_obs () in
      let rng = Rng.of_int 6 in
      let r =
        Async_engine.meet_exchange ~obs ~walkers rng g ~source:0 ~agents ~max_time:10.0
      in
      let module M = P.Async_meet_exchange in
      Alcotest.(check (option (float 0.0)))
        (wname ^ ": broadcast_time") (Some 0.0) r.M.broadcast_time;
      Alcotest.(check int) (wname ^ ": rings") 0 r.M.rings;
      Alcotest.(check int) (wname ^ ": informed") 5 r.M.informed;
      Alcotest.(check (array int)) (wname ^ ": curve") [| 5 |] r.M.curve;
      Alcotest.(check bool) (wname ^ ": no walker moved") true
        (List.for_all (fun (tag, _, _, _) -> tag = 0) !events);
      Alcotest.(check int64) (wname ^ ": no ringer drawn")
        (after_setup ~place:(fun rng -> ignore (Placement.place rng agents g)) 6)
        (Rng.bits64 rng))
    [ ("dense", P.Sparse_walkers.Dense); ("sparse", P.Sparse_walkers.Sparse) ];
  (* k = 0 agents never reaches a kernel: the placement rejects it *)
  List.iter
    (fun walkers ->
      Alcotest.check_raises "k = 0 rejected"
        (Invalid_argument "Placement.place: no agents") (fun () ->
          ignore
            (Async_engine.meet_exchange ~walkers (Rng.of_int 7) g ~source:0
               ~agents:(Placement.Stationary 0) ~max_time:10.0)))
    [ P.Sparse_walkers.Dense; P.Sparse_walkers.Sparse ]

(* ------------------------------------------------- run_result projection *)

let test_to_run_result () =
  let g = Gen.complete 16 in
  let r =
    Async_engine.push (Rng.of_int 3) g ~variant:P.Async_push.Async_push ~source:0
      ~max_time:1e6
  in
  let rr = P.Async_push.to_run_result r in
  (match (r.P.Async_push.broadcast_time, rr.P.Run_result.broadcast_time) with
  | Some t, Some m ->
      Alcotest.(check int) "rounded up" (int_of_float (Float.ceil t)) m
  | _ -> Alcotest.fail "expected completion");
  let curve = rr.P.Run_result.informed_curve in
  Alcotest.(check int) "rounds_run is curve length - 1"
    (Array.length curve - 1) rr.P.Run_result.rounds_run;
  Alcotest.(check int) "curve starts at 1" 1 curve.(0);
  Alcotest.(check int) "curve ends informed" 16 curve.(Array.length curve - 1);
  Alcotest.(check int) "contacts = rings" r.P.Async_push.rings
    rr.P.Run_result.contacts;
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone"
  done

(* ----------------------------------------------------------- validation *)

let test_validation () =
  let g = Gen.complete 4 in
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad source" true
    (bad (fun () ->
         Async_engine.push (Rng.of_int 1) g ~variant:P.Async_push.Async_push
           ~source:9 ~max_time:10.0));
  Alcotest.(check bool) "bad max_time" true
    (bad (fun () ->
         Async_engine.push (Rng.of_int 1) g ~variant:P.Async_push.Async_push
           ~source:0 ~max_time:0.0));
  Alcotest.(check bool) "meet bad source" true
    (bad (fun () ->
         Async_engine.meet_exchange (Rng.of_int 1) g ~source:(-1)
           ~agents:Placement.One_per_vertex ~max_time:10.0));
  Alcotest.(check bool) "meet bad max_time" true
    (bad (fun () ->
         Async_engine.meet_exchange (Rng.of_int 1) g ~source:0
           ~agents:Placement.One_per_vertex ~max_time:(-1.0)))

(* [~walkers:Sparse] runs the one meet-exchange kernel: every run
   completes, keeps its agent count, informs every agent and repeats
   itself under the same seed. *)
let test_meet_exchange_sparse () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let run () =
            Async_engine.meet_exchange ~walkers:P.Sparse_walkers.Sparse
              (Rng.of_int seed) g ~source:0 ~agents:(Placement.Stationary 14)
              ~max_time:1e6
          in
          let r = run () in
          Alcotest.(check bool)
            (Printf.sprintf "sparse %s seed=%d: completes" name seed)
            true
            (r.P.Async_meet_exchange.broadcast_time <> None);
          Alcotest.(check int)
            (name ^ ": agent count") 14 r.P.Async_meet_exchange.agents;
          Alcotest.(check int)
            (name ^ ": all agents informed") 14 r.P.Async_meet_exchange.informed;
          check_meet_result (Printf.sprintf "sparse %s seed=%d" name seed) r
            (run ()))
        seeds)
    (families ())

(* ?walkers selects nothing and ?obs only adds the lists that order the
   contact stream: Dense, Sparse and Dense with a nop obs give one result *)
let test_modes_and_obs_agree () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          List.iter
            (fun (aname, agents) ->
              List.iter
                (fun lazy_walk ->
                  let run ?obs walkers =
                    Async_engine.meet_exchange ?obs ?lazy_walk ~walkers
                      (Rng.of_int seed) g ~source:0 ~agents ~max_time:20_000.0
                  in
                  let dense = run P.Sparse_walkers.Dense in
                  let label =
                    Printf.sprintf "%s seed=%d %s lazy=%s" name seed aname
                      (Option.fold ~none:"auto" ~some:string_of_bool lazy_walk)
                  in
                  check_meet_result (label ^ " sparse") dense
                    (run P.Sparse_walkers.Sparse);
                  check_meet_result (label ^ " obs") dense
                    (run ~obs:(Instrument.make ()) P.Sparse_walkers.Dense))
                [ None; Some true; Some false ])
            [
              ("stationary12", Placement.Stationary 12);
              ("one-per-vertex", Placement.One_per_vertex);
              ("linear4", Placement.Linear 4.0);
              ("all-at-last", Placement.All_at (Graph.n g - 1, 6));
            ])
        seeds)
    (families ())

(* an agent on an isolated vertex is rejected before the first ring, in
   either walker mode: an edge 0-1 plus the isolated vertex 2 *)
let test_isolated_agent_rejected () =
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  List.iter
    (fun walkers ->
      Alcotest.check_raises
        (P.Sparse_walkers.mode_to_string walkers)
        (Invalid_argument "Async_engine.meet_exchange: agent on isolated vertex")
        (fun () ->
          ignore
            (Async_engine.meet_exchange ~walkers (Rng.of_int 8) g ~source:0
               ~agents:(Placement.All_at (2, 3)) ~max_time:10.0)))
    [ P.Sparse_walkers.Dense; P.Sparse_walkers.Sparse ]

(* the Poisson-clock stream hands out exactly the Exp(1) draws, in draw
   order, whatever its batch *)
let test_clock_stream_draws () =
  let module Exp_stream = Rumor_des.Exp_stream in
  let reference =
    let g = Rng.of_int 71 in
    Array.init 10_000 (fun _ -> Rumor_prob.Dist.exponential g 1.0)
  in
  List.iter
    (fun batch ->
      let s = Exp_stream.create ~batch (Rng.of_int 71) in
      Array.iteri
        (fun k x ->
          let y = Exp_stream.next s in
          if not (Float.equal x y) then
            Alcotest.failf "batch %d: draw %d is %g, want %g" batch k y x)
        reference)
    [ 1; 3; 4096; 20_000 ];
  Alcotest.check_raises "batch 0" (Invalid_argument "Exp_stream.create: batch < 1") (fun () ->
      ignore (Exp_stream.create ~batch:0 (Rng.of_int 1)))

let suite =
  [
    Alcotest.test_case "K_n oracle: mean = sum of 1/rate" `Quick test_kn_oracle;
    Alcotest.test_case "K_n push: exact broadcast-time law (KS)" `Quick
      (check_kn_law P.Async_push.Async_push);
    Alcotest.test_case "K_n push-pull: exact broadcast-time law (KS)" `Quick
      (check_kn_law P.Async_push.Async_push_pull);
    Alcotest.test_case "meet-exchange: exact law on tiny graphs (KS)" `Quick
      test_meet_exchange_law;
    Alcotest.test_case "same seed: same run and obs stream" `Quick
      test_same_seed_same_run;
    Alcotest.test_case "push rings informed vertices only" `Quick
      test_push_rings_informed_only;
    Alcotest.test_case "complete at t = 0: no ringer drawn" `Quick test_complete_at_zero;
    Alcotest.test_case "sparse meet-exchange completes deterministically" `Quick
      test_meet_exchange_sparse;
    Alcotest.test_case "to_run_result projection" `Quick test_to_run_result;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "meet-exchange oracle: K_2 closed form" `Quick test_meet_oracle;
    Alcotest.test_case "walker modes and obs agree" `Quick test_modes_and_obs_agree;
    Alcotest.test_case "agent on isolated vertex rejected" `Quick
      test_isolated_agent_rejected;
    Alcotest.test_case "clock stream = exponential draws, any batch" `Quick test_clock_stream_draws;
  ]
