module Placement = Rumor_agents.Placement
module P = Rumor_protocols

type lazy_mode = Lazy_off | Lazy_on | Lazy_auto

type spec =
  | Push
  | Push_pull
  | Visit_exchange of { agents : Placement.spec; laziness : lazy_mode }
  | Meet_exchange of { agents : Placement.spec; laziness : lazy_mode }
  | Combined of { agents : Placement.spec; laziness : lazy_mode }
  | Async_push
  | Async_push_pull
  | Async_meet_exchange of { agents : Placement.spec; laziness : lazy_mode }

let push = Push
let push_pull = Push_pull

let visit_exchange ?(alpha = 1.0) () =
  Visit_exchange { agents = Placement.Linear alpha; laziness = Lazy_off }

let meet_exchange ?(alpha = 1.0) () =
  Meet_exchange { agents = Placement.Linear alpha; laziness = Lazy_auto }

let combined ?(alpha = 1.0) () =
  Combined { agents = Placement.Linear alpha; laziness = Lazy_off }

let async_push = Async_push
let async_push_pull = Async_push_pull

let name = function
  | Push -> "push"
  | Push_pull -> "push-pull"
  | Visit_exchange _ -> "visit-exchange"
  | Meet_exchange _ -> "meet-exchange"
  | Combined _ -> "combined"
  | Async_push -> "async-push"
  | Async_push_pull -> "async-push-pull"
  | Async_meet_exchange _ -> "async-meet-exchange"

let all ~agents ~laziness =
  [
    Push;
    Push_pull;
    Visit_exchange { agents; laziness };
    Meet_exchange { agents; laziness };
    Combined { agents; laziness };
    Async_push;
    Async_push_pull;
    Async_meet_exchange { agents; laziness };
  ]

let names = List.map name (all ~agents:(Placement.Linear 1.0) ~laziness:Lazy_auto)

let of_name ~agents ~laziness s =
  List.find_opt (fun spec -> String.equal (name spec) s) (all ~agents ~laziness)

let resolve_lazy laziness g =
  match laziness with
  | Lazy_off -> false
  | Lazy_on -> true
  | Lazy_auto -> Rumor_graph.Algo.is_bipartite g

type walkers = P.Sparse_walkers.mode = Dense | Sparse | Auto

let walkers_name = P.Sparse_walkers.mode_to_string
let walkers_of_string = P.Sparse_walkers.mode_of_string

let run ?obs ?trace ?walkers spec rng g ~source ~max_rounds =
  (* one top-level span per run, named after the protocol; the kernels hang
     their per-round spans under it *)
  Rumor_obs.Trace.with_span trace ("run." ^ name spec) (fun () ->
      match spec with
      | Push ->
          P.Engine.push ?obs ?trace rng g ~source ~max_rounds ()
      | Push_pull ->
          P.Engine.push_pull ?obs ?trace rng g ~source ~max_rounds ()
      | Visit_exchange { agents; laziness } ->
          let lazy_walk = resolve_lazy laziness g in
          P.Engine.visit_exchange ?obs ?trace ~lazy_walk ?walkers rng g
            ~source ~agents ~max_rounds ()
      | Meet_exchange { agents; laziness } ->
          let lazy_walk = resolve_lazy laziness g in
          P.Engine.meet_exchange ?obs ?trace ~lazy_walk ?walkers rng g
            ~source ~agents ~max_rounds ()
      | Combined { agents; laziness } ->
          (* the sparse representation has no combined kernel: an explicit
             request is refused rather than silently run dense *)
          if walkers = Some Sparse then
            invalid_arg "Protocol.run: combined has no sparse-walker kernel";
          let lazy_walk = resolve_lazy laziness g in
          P.Engine.combined ?obs ?trace ~lazy_walk rng g ~source ~agents
            ~max_rounds ()
      (* the continuous-time processes read [max_rounds] as a time horizon *)
      | Async_push ->
          P.Async_push.to_run_result
            (P.Async_engine.push ?obs ?trace rng g
               ~variant:P.Async_push.Async_push ~source
               ~max_time:(float_of_int max_rounds))
      | Async_push_pull ->
          P.Async_push.to_run_result
            (P.Async_engine.push ?obs ?trace rng g
               ~variant:P.Async_push.Async_push_pull ~source
               ~max_time:(float_of_int max_rounds))
      | Async_meet_exchange { agents; laziness } ->
          let lazy_walk = resolve_lazy laziness g in
          P.Async_meet_exchange.to_run_result
            (P.Async_engine.meet_exchange ?obs ?trace ~lazy_walk rng g
               ~source ~agents ~max_time:(float_of_int max_rounds)))
