(* The fixed kernel matrix the golden digests in Golden_kernels cover.

   Every cell runs one round or async kernel on one (family, seed, variant)
   with a stream-recording instrument (and a traffic accumulator where the
   kernel supports one) attached, and reduces the full outcome to an MD5
   digest: every Instrument event in firing order, the result record, the
   per-edge traffic loads, and the per-vertex informing rounds where the
   kernel exposes them.  A kernel change that moves a single random draw,
   event or counter changes the cell's digest.

   [cells kernels] is parameterised by the implementation under test, so
   the same matrix reproduces the digests from any set of kernels. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Gen_random = Rumor_graph.Gen_random
module Placement = Rumor_agents.Placement
module P = Rumor_protocols
module Run_result = Rumor_protocols.Run_result
module Traffic = Rumor_protocols.Traffic
module Instrument = Rumor_obs.Instrument

(* regular and not, bipartite and not, dense and sparse *)
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

(* The kernels under test.  Each takes the run's seed (not a generator) so
   an implementation may replay a run to collect a side output.  [push]
   and [visit_exchange] also return the per-vertex informing rounds
   ([max_int] if never informed). *)
type kernels = {
  push :
    obs:Instrument.t ->
    traffic:Traffic.t ->
    seed:int ->
    Graph.t ->
    source:int ->
    max_rounds:int ->
    Run_result.t * int array;
  push_pull :
    obs:Instrument.t ->
    traffic:Traffic.t ->
    seed:int ->
    Graph.t ->
    source:int ->
    max_rounds:int ->
    Run_result.t;
  visit_exchange :
    obs:Instrument.t ->
    traffic:Traffic.t ->
    lazy_walk:bool ->
    walkers:P.Sparse_walkers.mode ->
    seed:int ->
    Graph.t ->
    source:int ->
    agents:Placement.spec ->
    max_rounds:int ->
    Run_result.t * int array;
  meet_exchange :
    obs:Instrument.t ->
    traffic:Traffic.t ->
    lazy_walk:bool option ->
    walkers:P.Sparse_walkers.mode ->
    seed:int ->
    Graph.t ->
    source:int ->
    agents:Placement.spec ->
    max_rounds:int ->
    Run_result.t;
      (** [lazy_walk = None] omits it: the bipartiteness default *)
  combined :
    obs:Instrument.t ->
    lazy_walk:bool ->
    seed:int ->
    Graph.t ->
    source:int ->
    agents:Placement.spec ->
    max_rounds:int ->
    Run_result.t;
  async_push :
    obs:Instrument.t ->
    seed:int ->
    Graph.t ->
    variant:P.Async_push.variant ->
    source:int ->
    max_time:float ->
    P.Async_push.result;
  async_meet_exchange :
    obs:Instrument.t ->
    lazy_walk:bool option ->
    walkers:P.Sparse_walkers.mode ->
    seed:int ->
    Graph.t ->
    source:int ->
    agents:Placement.spec ->
    max_time:float ->
    P.Async_meet_exchange.result;
}

(* ------------------------------------------------------------ digests *)

(* An instrument appending one tagged line per hook firing. *)
let recording () =
  let buf = Buffer.create 4096 in
  let obs =
    Instrument.make
      ~on_round_start:(fun r -> Printf.bprintf buf "s %d\n" r)
      ~on_round_end:(fun ~round ~informed ~contacts ->
        Printf.bprintf buf "e %d %d %d\n" round informed contacts)
      ~on_contact:(fun u v -> Printf.bprintf buf "c %d %d\n" u v)
      ~on_walker_move:(fun ~agent ~from_ ~to_ ->
        Printf.bprintf buf "w %d %d %d\n" agent from_ to_)
      ~on_occupancy:(fun ~round ~occupied ~walkers ->
        Printf.bprintf buf "o %d %d %d\n" round occupied walkers)
      ()
  in
  (obs, buf)

let add_ints buf tag a =
  Printf.bprintf buf "%s" tag;
  Array.iter (fun x -> Printf.bprintf buf " %d" x) a;
  Buffer.add_char buf '\n'

let add_int_option buf tag = function
  | None -> Printf.bprintf buf "%s none\n" tag
  | Some x -> Printf.bprintf buf "%s %d\n" tag x

(* floats in hex notation: exact, so two digests agree iff the bits do *)
let add_float_option buf tag = function
  | None -> Printf.bprintf buf "%s none\n" tag
  | Some x -> Printf.bprintf buf "%s %h\n" tag x

let add_run_result buf (r : Run_result.t) =
  add_int_option buf "broadcast_time" r.Run_result.broadcast_time;
  Printf.bprintf buf "rounds_run %d\ncontacts %d\n" r.Run_result.rounds_run
    r.Run_result.contacts;
  add_ints buf "curve" r.Run_result.informed_curve;
  add_int_option buf "all_agents_informed" r.Run_result.all_agents_informed

let finish buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* -------------------------------------------------------------- cells *)

let agent_specs =
  [ ("stationary12", Placement.Stationary 12); ("one-per-vertex", Placement.One_per_vertex) ]

(* agent count alpha * n as in the perfbench cells, plus one lazy walk *)
let sparse_variants =
  [
    ("alpha=0.25", Placement.Linear 0.25, false);
    ("alpha=1", Placement.Linear 1.0, false);
    ("alpha=1", Placement.Linear 1.0, true);
  ]

let variants =
  [ ("push", P.Async_push.Async_push); ("push-pull", P.Async_push.Async_push_pull) ]

(* [for_each xs f] concatenates [f x] over [xs]. *)
let for_each xs f = List.concat_map f xs

(* Every cell of the matrix as (label, thunk computing its digest), in a
   fixed order. *)
let cells k =
  let fams = families () in
  let per_family_seed f =
    for_each fams (fun (fname, g) ->
        for_each seeds (fun seed -> f fname g seed))
  in
  let cell label run =
    ( label,
      fun () ->
        let obs, buf = recording () in
        run obs buf;
        finish buf )
  in
  let push =
    per_family_seed (fun fname g seed ->
        [
          cell (Printf.sprintf "push %s seed=%d" fname seed) (fun obs buf ->
              let traffic = Traffic.create g in
              let r, tau =
                k.push ~obs ~traffic ~seed g ~source:0 ~max_rounds:100_000
              in
              add_run_result buf r;
              add_ints buf "traffic" (Traffic.loads traffic);
              add_ints buf "tau" tau);
        ])
  in
  let push_pull =
    per_family_seed (fun fname g seed ->
        [
          cell (Printf.sprintf "push-pull %s seed=%d" fname seed) (fun obs buf ->
              let traffic = Traffic.create g in
              let r = k.push_pull ~obs ~traffic ~seed g ~source:1 ~max_rounds:100_000 in
              add_run_result buf r;
              add_ints buf "traffic" (Traffic.loads traffic));
        ])
  in
  let visit_exchange =
    per_family_seed (fun fname g seed ->
        for_each agent_specs (fun (aname, agents) ->
            for_each [ false; true ] (fun lazy_walk ->
                [
                  cell
                    (Printf.sprintf "visit-exchange %s seed=%d %s lazy=%b" fname seed
                       aname lazy_walk) (fun obs buf ->
                      let traffic = Traffic.create g in
                      let r, tau =
                        k.visit_exchange ~obs ~traffic ~lazy_walk
                          ~walkers:P.Sparse_walkers.Dense ~seed g ~source:0 ~agents
                          ~max_rounds:100_000
                      in
                      add_run_result buf r;
                      add_ints buf "traffic" (Traffic.loads traffic);
                      add_ints buf "tau" tau);
                ])))
  in
  let meet_exchange =
    per_family_seed (fun fname g seed ->
        [
          cell (Printf.sprintf "meet-exchange %s seed=%d" fname seed)
            (fun obs buf ->
              let traffic = Traffic.create g in
              let r =
                k.meet_exchange ~obs ~traffic ~lazy_walk:None
                  ~walkers:P.Sparse_walkers.Dense ~seed g ~source:0
                  ~agents:(Placement.Stationary 14) ~max_rounds:20_000
              in
              add_run_result buf r;
              add_ints buf "traffic" (Traffic.loads traffic));
        ])
  in
  (* the count-compressed round kernels: they fire only the round and
     occupancy hooks, so a digest is those, the result and (for
     visit-exchange) the informing rounds *)
  let visit_exchange_sparse =
    per_family_seed (fun fname g seed ->
        for_each sparse_variants (fun (aname, agents, lazy_walk) ->
            [
              cell
                (Printf.sprintf "visit-exchange sparse %s seed=%d %s lazy=%b" fname seed
                   aname lazy_walk) (fun obs buf ->
                  let traffic = Traffic.create g in
                  let r, tau =
                    k.visit_exchange ~obs ~traffic ~lazy_walk
                      ~walkers:P.Sparse_walkers.Sparse ~seed g ~source:0 ~agents
                      ~max_rounds:100_000
                  in
                  add_run_result buf r;
                  add_ints buf "tau" tau);
            ]))
  in
  let meet_exchange_sparse =
    per_family_seed (fun fname g seed ->
        for_each sparse_variants (fun (aname, agents, lazy_walk) ->
            (* the non-lazy variants keep the bipartiteness default *)
            let lazy_walk = if lazy_walk then Some true else None in
            [
              cell
                (Printf.sprintf "meet-exchange sparse %s seed=%d %s lazy=%s" fname seed
                   aname
                   (match lazy_walk with Some _ -> "true" | None -> "auto"))
                (fun obs buf ->
                  let traffic = Traffic.create g in
                  add_run_result buf
                    (k.meet_exchange ~obs ~traffic ~lazy_walk
                       ~walkers:P.Sparse_walkers.Sparse ~seed g ~source:0 ~agents
                       ~max_rounds:20_000));
            ]))
  in
  let combined =
    per_family_seed (fun fname g seed ->
        for_each [ false; true ] (fun lazy_walk ->
            [
              cell
                (Printf.sprintf "combined %s seed=%d lazy=%b" fname seed lazy_walk)
                (fun obs buf ->
                  add_run_result buf
                    (k.combined ~obs ~lazy_walk ~seed g ~source:0
                       ~agents:(Placement.Stationary 12) ~max_rounds:100_000));
            ]))
  in
  let add_push_result buf (r : P.Async_push.result) =
    add_float_option buf "broadcast_time" r.P.Async_push.broadcast_time;
    Printf.bprintf buf "rings %d\ninformed %d\n" r.P.Async_push.rings
      r.P.Async_push.informed;
    add_ints buf "curve" r.P.Async_push.curve
  in
  let add_meet_result buf (r : P.Async_meet_exchange.result) =
    add_float_option buf "broadcast_time" r.P.Async_meet_exchange.broadcast_time;
    Printf.bprintf buf "rings %d\ninformed %d\nagents %d\n"
      r.P.Async_meet_exchange.rings r.P.Async_meet_exchange.informed
      r.P.Async_meet_exchange.agents;
    add_ints buf "curve" r.P.Async_meet_exchange.curve
  in
  let async_push =
    per_family_seed (fun fname g seed ->
        for_each variants (fun (vname, variant) ->
            [
              cell (Printf.sprintf "async-%s %s seed=%d" vname fname seed)
                (fun obs buf ->
                  add_push_result buf
                    (k.async_push ~obs ~seed g ~variant ~source:0 ~max_time:1e6));
            ]))
  in
  let async_push_capped =
    let g = Gen.path 12 in
    for_each seeds (fun seed ->
        [
          cell (Printf.sprintf "async-push capped path12 seed=%d" seed)
            (fun obs buf ->
              add_push_result buf
                (k.async_push ~obs ~seed g ~variant:P.Async_push.Async_push ~source:0
                   ~max_time:2.5));
        ])
  in
  let async_meet_exchange =
    per_family_seed (fun fname g seed ->
        for_each agent_specs (fun (aname, agents) ->
            [
              cell
                (Printf.sprintf "async-meet-exchange %s seed=%d %s" fname seed aname)
                (fun obs buf ->
                  add_meet_result buf
                    (k.async_meet_exchange ~obs ~lazy_walk:None
                       ~walkers:P.Sparse_walkers.Dense ~seed g ~source:0 ~agents
                       ~max_time:20_000.0));
            ]))
  in
  (* [~walkers:Sparse] selects nothing any more: the same kernel runs, so
     each cell must reproduce its dense twin's digest, obs stream included *)
  let async_meet_exchange_sparse =
    per_family_seed (fun fname g seed ->
        for_each agent_specs (fun (aname, agents) ->
            [
              cell
                (Printf.sprintf "async-meet-exchange %s seed=%d %s walkers=sparse" fname
                   seed aname) (fun obs buf ->
                  add_meet_result buf
                    (k.async_meet_exchange ~obs ~lazy_walk:None
                       ~walkers:P.Sparse_walkers.Sparse ~seed g ~source:0 ~agents
                       ~max_time:20_000.0));
            ]))
  in
  (* K2 with lazy off is the parity trap the continuous model resolves;
     lazy on exercises the stay coin *)
  let async_meet_exchange_k2 =
    let g = Gen.complete 2 in
    for_each [ false; true ] (fun lazy_walk ->
        for_each seeds (fun seed ->
            [
              cell
                (Printf.sprintf "async-meet-exchange K2 lazy=%b seed=%d" lazy_walk seed)
                (fun obs buf ->
                  add_meet_result buf
                    (k.async_meet_exchange ~obs ~lazy_walk:(Some lazy_walk)
                       ~walkers:P.Sparse_walkers.Dense ~seed g ~source:0
                       ~agents:Placement.One_per_vertex ~max_time:20_000.0));
            ]))
  in
  List.concat
    [
      push;
      push_pull;
      visit_exchange;
      meet_exchange;
      visit_exchange_sparse;
      meet_exchange_sparse;
      combined;
      async_push;
      async_push_capped;
      async_meet_exchange;
      async_meet_exchange_sparse;
      async_meet_exchange_k2;
    ]
