module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Obs = Rumor_obs.Instrument
module Trace = Rumor_obs.Trace
module Counters = Rumor_obs.Counters
module Placement = Rumor_agents.Placement

(* The synchronous round kernels — push, push-pull, visit-exchange,
   meet-exchange and combined — over flat state: a Bitset per informed set
   (1 bit per vertex or agent), a dense frontier/position array, and
   growable Curve_buf curves, so per-run memory is O(n + m + rounds run)
   words and the inner loops touch only flat arrays.

   Determinism contract: every random choice is drawn from the caller's
   [rng] in one fixed order, so every field of the result — curves, contact
   counts, tau arrays, observation streams — is a pure function of the
   seed.  The golden digests in test/golden_kernels.ml pin that order bit
   for bit. *)

(* Tracing shims.  Hot round loops go through these instead of
   [Trace.with_span] so that a disabled run ([trace = None]) stays
   allocation-free: each shim is a bare option match, and the [~arg:...]
   [Some] cell for span payloads is only built inside the [Some] branch.
   The disabled path is pinned by an allocation test in test/test_engine.ml. *)

let[@inline] span_begin trace name =
  match trace with None -> () | Some tr -> Trace.begin_span tr name

let[@inline] span_begin_arg trace name arg =
  match trace with None -> () | Some tr -> Trace.begin_span tr ~arg name

let[@inline] span_end trace =
  match trace with None -> () | Some tr -> Trace.end_span tr

let contact_buckets =
  [| 1.; 10.; 100.; 1_000.; 10_000.; 100_000.; 1_000_000. |]

(* Closes the round span, samples the informed-count series, and bumps the
   scalar registry (rounds, contacts, contacts-per-round histogram). *)
let[@inline] trace_round_end trace ~informed ~contacts_delta =
  match trace with
  | None -> ()
  | Some tr ->
      Trace.end_span tr;
      Trace.counter tr "informed" informed;
      let cs = Trace.counters tr in
      Counters.incr (Counters.counter cs "rounds");
      Counters.add (Counters.counter cs "contacts") contacts_delta;
      Counters.observe
        (Counters.histogram cs "contacts_per_round" ~buckets:contact_buckets)
        (float_of_int contacts_delta)

let check_common ~who ~n ~source ~max_rounds =
  if source < 0 || source >= n then invalid_arg (who ^ ": source out of range");
  if max_rounds < 0 then invalid_arg (who ^ ": negative round cap")

(* [?tau] out-parameter: each party's informing round, [max_int] until
   informed.  Parties are what the kernel's informed curve counts:
   vertices, or agents for meet-exchange. *)
let reset_tau ~who ~parties = function
  | Some tau ->
      if Array.length tau <> parties then
        invalid_arg (who ^ ": tau length <> number of parties");
      Array.fill tau 0 parties max_int
  | None -> ()

(* typed, so the store inlines as an int store, not a polymorphic one *)
let[@inline] set_tau (tau : int array option) party round =
  match tau with Some tau -> tau.(party) <- round | None -> ()

(* Kernel loops hold no call on any path that returns (DESIGN.md, "Kernel
   loops"): a call there, even on a branch never taken, makes the
   compiler spill every value live across it.  So an attached instrument
   does not fire inside a contact loop.  The loop records each event's
   varying id in a flat buffer instead, and the events fire after the loop,
   in the order they happened.  The buffer exists only when an instrument
   is attached; without one it is empty and never touched, and each kernel
   keeps a single loop. *)
let event_buffer obs len =
  match obs with None -> [||] | Some _ -> Array.make len 0

(* Kernel loops draw through [Graph.unsafe_random_neighbor], so each kernel
   checks once per run, before its first contact, that no vertex its loop
   can call from is isolated, and raises the error the checked draw would
   have raised at the first such contact.  [calls] says whether the loop
   runs at all: a run that makes no contact (n = 1, or a cap of 0 rounds)
   does not need a neighbour. *)
let check_callers ~calls ok =
  if calls && not ok then invalid_arg "Graph.random_neighbor: isolated vertex"

(* ------------------------------------------------------------------ push *)

(* A push frontier entry packs a live vertex (24 bits) with the number of
   dead vertices informed between the previous live entry and it. *)
let id_bits = 24
let id_mask = (1 lsl id_bits) - 1

(* Push informs v through its caller, a neighbour.  A non-source vertex of
   degree 1 has no other, so once informed it is dead: every contact it
   makes calls an informed vertex and costs exactly one generator output
   ([Rng.below _ 1] never rejects).  Such vertices stay out of the frontier
   [live], which lists the others in informing order; each entry carries
   the count of dead vertices informed just before it, and [pending] counts
   those informed since the last entry.  A round walks the entries active
   at its start, skipping each entry's dead count before its draw, then the
   dead tail ([pending] at the start): the generator advances exactly as
   if every informed vertex had called in informing order.

   With an instrument attached, [dead] lists the dead vertices in informing
   order, and the replay fires each dead contact, (w, w's only neighbour),
   at its place in that order. *)
(* lint: hot *)
let push ?obs ?trace ?tau rng g ~source ~max_rounds () =
  let n = Graph.n g in
  check_common ~who:"Engine.push" ~n ~source ~max_rounds;
  (* every caller but the source was informed by a neighbour *)
  check_callers ~calls:(n > 1 && max_rounds > 0) (Graph.degree g source > 0);
  reset_tau ~who:"Engine.push" ~parties:n tau;
  set_tau tau source 0;
  let informed = Bitset.create n in
  let live = Array.make n 0 in
  let recording = Option.is_some obs in
  (* called.(i): the vertex the entry live.(i) called this round *)
  let called = event_buffer obs n in
  let dead = event_buffer obs n in
  let ndead = ref 0 in
  let cursor = ref 0 in
  Bitset.add informed source;
  live.(0) <- source;
  let nlive = ref 1 in
  let pending = ref 0 in
  let count = ref 1 in
  let contacts = ref 0 in
  let curve = Curve_buf.create ~hint:max_rounds in
  Curve_buf.push curve 1;
  let t = ref 0 in
  while !count < n && !t < max_rounds do
    incr t;
    let round = !t in
    Obs.round_start obs round;
    span_begin_arg trace "push.round" round;
    let c0 = !contacts in
    let active = !count in
    let entries = !nlive and tail = !pending in
    (* the counters stay plain local refs (no closure captures them) *)
    for i = 0 to entries - 1 do
      let e = live.(i) in
      Rng.skip rng (e lsr id_bits);
      let v = Graph.unsafe_random_neighbor g rng (e land id_mask) in
      if recording then called.(i) <- v;
      if not (Bitset.mem informed v) then begin
        Bitset.add informed v;
        set_tau tau v round;
        incr count;
        if Graph.degree g v = 1 then begin
          if recording then begin
            dead.(!ndead) <- v;
            incr ndead
          end;
          incr pending
        end
        else begin
          live.(!nlive) <- v lor (!pending lsl id_bits);
          incr nlive;
          pending := 0
        end
      end
    done;
    Rng.skip rng tail;
    contacts := !contacts + active;
    if recording then begin
      cursor := 0;
      for i = 0 to entries - 1 do
        let e = live.(i) in
        for _ = 1 to e lsr id_bits do
          Obs.contact obs dead.(!cursor) (Graph.neighbor g dead.(!cursor) 0);
          incr cursor
        done;
        Obs.contact obs (e land id_mask) called.(i)
      done;
      for _ = 1 to tail do
        Obs.contact obs dead.(!cursor) (Graph.neighbor g dead.(!cursor) 0);
        incr cursor
      done
    end;
    Curve_buf.push curve !count;
    trace_round_end trace ~informed:!count ~contacts_delta:(!contacts - c0);
    Obs.round_end obs ~round ~informed:!count ~contacts:!contacts
  done;
  let rounds_run = !t in
  let broadcast_time = if !count = n then Some rounds_run else None in
  Run_result.make ~broadcast_time ~rounds_run
    ~informed_curve:(Curve_buf.contents curve)
    ~contacts:!contacts ()

(* ------------------------------------------------------------- push-pull *)

(* lint: hot *)
let push_pull ?obs ?trace rng g ~source ~max_rounds () =
  let n = Graph.n g in
  check_common ~who:"Engine.push_pull" ~n ~source ~max_rounds;
  (* every vertex calls, every round *)
  check_callers ~calls:(n > 1 && max_rounds > 0) (Graph.min_degree g > 0);
  (* [before] is the informed set at the top of the round (the snapshot the
     push/pull eligibility test reads); [informed] is live *)
  let informed = Bitset.create n in
  let before = Bitset.create n in
  let recording = Option.is_some obs in
  let called = event_buffer obs n in
  Bitset.add informed source;
  let count = ref 1 in
  let contacts = ref 0 in
  let curve = Curve_buf.create ~hint:max_rounds in
  Curve_buf.push curve 1;
  let t = ref 0 in
  while !count < n && !t < max_rounds do
    incr t;
    let round = !t in
    Obs.round_start obs round;
    span_begin_arg trace "push_pull.round" round;
    let c0 = !contacts in
    Bitset.snapshot ~src:informed ~dst:before;
    (* every vertex calls one neighbor; inlined rather than a per-contact
       closure so [count] stays unboxed *)
    for u = 0 to n - 1 do
      let v = Graph.unsafe_random_neighbor g rng u in
      if recording then called.(u) <- v;
      if Bitset.mem before u then begin
        if not (Bitset.mem informed v) then begin
          Bitset.add informed v;
          incr count
        end
      end
      else if Bitset.mem before v && not (Bitset.mem informed u) then begin
        Bitset.add informed u;
        incr count
      end
    done;
    contacts := !contacts + n;
    if recording then
      for u = 0 to n - 1 do
        Obs.contact obs u called.(u)
      done;
    Curve_buf.push curve !count;
    trace_round_end trace ~informed:!count ~contacts_delta:(!contacts - c0);
    Obs.round_end obs ~round ~informed:!count ~contacts:!contacts
  done;
  let rounds_run = !t in
  let broadcast_time = if !count = n then Some rounds_run else None in
  Run_result.make ~broadcast_time ~rounds_run
    ~informed_curve:(Curve_buf.contents curve)
    ~contacts:!contacts ()

(* --------------------------------------------------------- walker motion *)

let place_agents ~who rng g agents =
  let pos = Placement.place rng agents g in
  if Array.length pos = 0 then invalid_arg (who ^ ": no agents");
  (* a graph with positive min degree (O(1): cached degree stats) cannot
     hold an isolated vertex, so the O(k) per-agent scan is pure overhead *)
  if Graph.min_degree g = 0 then
    Array.iter
      (fun v ->
        if Graph.degree g v = 0 then invalid_arg (who ^ ": agent on isolated vertex"))
      pos;
  pos

(* One synchronized walker round over a flat position array, consuming [rng]
   in agent order: per agent, the lazy coin (if lazy) then the neighbor
   draw, unchecked: [place_agents] put no agent on an isolated vertex, and
   a walk leaves a vertex only for a neighbour, which is not isolated.  With an instrument, [from] (an {!event_buffer} of one slot per
   agent) keeps each agent's old vertex until the moves fire. *)
(* lint: hot *)
let move_agents obs ~from ~lazy_walk rng g pos =
  let recording = Option.is_some obs in
  for a = 0 to Array.length pos - 1 do
    let u = pos.(a) in
    let v =
      if lazy_walk && Rng.bool rng then u
      else Graph.unsafe_random_neighbor g rng u
    in
    pos.(a) <- v;
    if recording then from.(a) <- u
  done;
  if recording then
    for a = 0 to Array.length pos - 1 do
      Obs.walker_move obs ~agent:a ~from_:from.(a) ~to_:pos.(a)
    done

(* -------------------------------------------------------- visit-exchange *)

(* Count-compressed VE round loop: walker state lives in Sparse_walkers'
   per-vertex (uninformed, informed) counts, so both spread phases are
   O(occupied) sweeps.  Not bit-identical to the dense kernel (agent
   identity is erased; A10 gates the distributional agreement); fires the
   aggregate occupancy hook instead of per-agent contact/walker_move. *)
(* lint: hot *)
let visit_exchange_sparse ?obs ?trace ?tau ~lazy_walk rng g ~source ~agents
    ~max_rounds () =
  let n = Graph.n g in
  let w =
    Sparse_walkers.create ~who:"Engine.visit_exchange" ~lazy_walk rng g agents
  in
  let k = Sparse_walkers.agent_count w in
  let vertex_informed = Bitset.create n in
  Bitset.add vertex_informed source;
  let informed_vertices = ref 1 in
  (* round 0: every walker standing on the source is informed *)
  let informed_agents = ref (Sparse_walkers.inform_all_at w source) in
  let contacts = ref !informed_agents in
  let curve = Curve_buf.create ~hint:max_rounds in
  Curve_buf.push curve 1;
  let all_agents_round = ref (if !informed_agents = k then 0 else -1) in
  let last_vertex_round = ref 0 in
  let t = ref 0 in
  while (!informed_vertices < n || !all_agents_round < 0) && !t < max_rounds do
    incr t;
    let round = !t in
    Obs.round_start obs round;
    span_begin_arg trace "visit_exchange.round" round;
    let c0 = !contacts in
    span_begin trace "walk";
    Sparse_walkers.step rng w;
    span_end trace;
    span_begin trace "spread";
    let occ = Sparse_walkers.occupied_count w in
    (* phase 2: a vertex holding a walker informed in a previous round gets
       informed (conversions below only land in the informed counts after
       this sweep, so they cannot inform a vertex until next round).  Once
       every vertex is informed it can inform none, and is skipped. *)
    if !informed_vertices < n then
      for i = 0 to occ - 1 do
        let v = Sparse_walkers.occupied_vertex w i in
        if
          Sparse_walkers.informed_at w v > 0
          && not (Bitset.mem vertex_informed v)
        then begin
          Bitset.add vertex_informed v;
          set_tau tau v round;
          incr informed_vertices;
          incr contacts;
          last_vertex_round := round
        end
      done;
    (* phase 3: every walker standing on an informed vertex is informed;
       skipped once every walker is *)
    if !informed_agents < k then
      for i = 0 to occ - 1 do
        let v = Sparse_walkers.occupied_vertex w i in
        if Bitset.mem vertex_informed v then begin
          let c = Sparse_walkers.inform_all_at w v in
          informed_agents := !informed_agents + c;
          contacts := !contacts + c
        end
      done;
    span_end trace;
    Obs.occupancy obs ~round ~occupied:occ ~walkers:k;
    if !informed_agents = k && !all_agents_round < 0 then
      all_agents_round := round;
    Curve_buf.push curve !informed_vertices;
    trace_round_end trace ~informed:!informed_vertices
      ~contacts_delta:(!contacts - c0);
    Obs.round_end obs ~round ~informed:!informed_vertices ~contacts:!contacts
  done;
  let rounds_run = !t in
  let broadcast_time =
    if !informed_vertices = n then Some !last_vertex_round else None
  in
  let all_agents_informed =
    if !all_agents_round < 0 then None else Some !all_agents_round
  in
  Run_result.make ~all_agents_informed ~broadcast_time ~rounds_run
    ~informed_curve:(Curve_buf.contents curve)
    ~contacts:!contacts ()

(* lint: hot *)
let visit_exchange_dense ?obs ?trace ?tau ~lazy_walk rng g ~source ~agents
    ~max_rounds () =
  let n = Graph.n g in
  let pos = place_agents ~who:"Engine.visit_exchange" rng g agents in
  let k = Array.length pos in
  let vertex_informed = Bitset.create n in
  let agent_informed = Bitset.create k in
  let agent_before = Bitset.create k in
  let recording = Option.is_some obs in
  (* the agents of a phase's contacts, in order, or the old vertices of a
     walk, until they fire *)
  let trail = event_buffer obs k in
  let nrec = ref 0 in
  let contacts = ref 0 in
  (* round 0: the source is informed, and so is every agent standing on it *)
  Bitset.add vertex_informed source;
  let informed_vertices = ref 1 in
  let informed_agents = ref 0 in
  for a = 0 to k - 1 do
    if pos.(a) = source then begin
      Bitset.add agent_informed a;
      incr informed_agents;
      incr contacts
    end
  done;
  let curve = Curve_buf.create ~hint:max_rounds in
  Curve_buf.push curve 1;
  (* -1 = not all informed yet; an int sentinel instead of [int option ref]
     so flipping it in the round loop never allocates a [Some] cell *)
  let all_agents_round = ref (if !informed_agents = k then 0 else -1) in
  (* the round the most recent vertex was informed; its final value is the
     completion round when all vertices end up informed *)
  let last_vertex_round = ref 0 in
  let t = ref 0 in
  while (!informed_vertices < n || !all_agents_round < 0) && !t < max_rounds do
    incr t;
    let round = !t in
    Obs.round_start obs round;
    span_begin_arg trace "visit_exchange.round" round;
    let c0 = !contacts in
    (* phase 1: all agents step in parallel *)
    span_begin trace "walk";
    move_agents obs ~from:trail ~lazy_walk rng g pos;
    span_end trace;
    span_begin trace "spread";
    (* phase 2: agents informed in a previous round inform their vertex;
       skipped once every vertex is informed, when it can inform none *)
    if !informed_vertices < n then begin
      Bitset.snapshot ~src:agent_informed ~dst:agent_before;
      nrec := 0;
      for a = 0 to k - 1 do
        if Bitset.mem agent_before a then begin
          let v = pos.(a) in
          if not (Bitset.mem vertex_informed v) then begin
            Bitset.add vertex_informed v;
            set_tau tau v round;
            incr informed_vertices;
            incr contacts;
            last_vertex_round := round;
            if recording then begin
              trail.(!nrec) <- a;
              incr nrec
            end
          end
        end
      done;
      for i = 0 to !nrec - 1 do
        Obs.contact obs trail.(i) pos.(trail.(i))
      done
    end;
    (* phase 3: uninformed agents standing on an informed vertex (informed
       in any round <= this one) become informed; skipped once every agent
       is *)
    if !informed_agents < k then begin
      nrec := 0;
      for a = 0 to k - 1 do
        if (not (Bitset.mem agent_informed a)) && Bitset.mem vertex_informed pos.(a)
        then begin
          Bitset.add agent_informed a;
          incr informed_agents;
          incr contacts;
          if recording then begin
            trail.(!nrec) <- a;
            incr nrec
          end
        end
      done;
      for i = 0 to !nrec - 1 do
        Obs.contact obs pos.(trail.(i)) trail.(i)
      done
    end;
    span_end trace;
    if !informed_agents = k && !all_agents_round < 0 then
      all_agents_round := round;
    Curve_buf.push curve !informed_vertices;
    trace_round_end trace ~informed:!informed_vertices
      ~contacts_delta:(!contacts - c0);
    Obs.round_end obs ~round ~informed:!informed_vertices ~contacts:!contacts
  done;
  let rounds_run = !t in
  let broadcast_time =
    if !informed_vertices = n then Some !last_vertex_round else None
  in
  let all_agents_informed =
    if !all_agents_round < 0 then None else Some !all_agents_round
  in
  Run_result.make ~all_agents_informed ~broadcast_time
    ~rounds_run
    ~informed_curve:(Curve_buf.contents curve)
    ~contacts:!contacts ()

let visit_exchange ?obs ?trace ?tau ?(lazy_walk = false)
    ?(walkers = Sparse_walkers.Dense) rng g ~source ~agents ~max_rounds () =
  let n = Graph.n g in
  check_common ~who:"Engine.visit_exchange" ~n ~source ~max_rounds;
  reset_tau ~who:"Engine.visit_exchange" ~parties:n tau;
  set_tau tau source 0;
  if Sparse_walkers.use_sparse walkers agents g then
    visit_exchange_sparse ?obs ?trace ?tau ~lazy_walk rng g ~source ~agents
      ~max_rounds ()
  else
    visit_exchange_dense ?obs ?trace ?tau ~lazy_walk rng g ~source ~agents
      ~max_rounds ()

(* --------------------------------------------------------- meet-exchange *)

(* Count-compressed ME round loop.  A meeting needs >= 1 previously informed
   and >= 1 uninformed walker on the same vertex — exactly what the two
   count arrays expose, because conversions only enter the informed counts
   after the sweep (so "previously informed" is whatever the informed array
   holds right after the scatter).  Source hand-off converts everyone on a
   still-active source, matching the dense kernel. *)
(* lint: hot *)
let meet_exchange_sparse ?obs ?trace ~lazy_walk rng g ~source ~agents
    ~max_rounds () =
  let w =
    Sparse_walkers.create ~who:"Engine.meet_exchange" ~lazy_walk rng g agents
  in
  let k = Sparse_walkers.agent_count w in
  (* round 0: walkers standing on the source are informed *)
  let informed = ref (Sparse_walkers.inform_all_at w source) in
  let contacts = ref !informed in
  let source_active = ref (!informed = 0) in
  let curve = Curve_buf.create ~hint:max_rounds in
  Curve_buf.push curve !informed;
  let t = ref 0 in
  while !informed < k && !t < max_rounds do
    incr t;
    let round = !t in
    Obs.round_start obs round;
    span_begin_arg trace "meet_exchange.round" round;
    let c0 = !contacts in
    span_begin trace "walk";
    Sparse_walkers.step rng w;
    span_end trace;
    span_begin trace "spread";
    let occ = Sparse_walkers.occupied_count w in
    for i = 0 to occ - 1 do
      let v = Sparse_walkers.occupied_vertex w i in
      if !source_active && v = source then begin
        (* hand-off: the first walkers to visit the source all pick the
           rumor up, informed companions or not *)
        let c = Sparse_walkers.inform_all_at w v in
        informed := !informed + c;
        contacts := !contacts + c;
        source_active := false
      end
      else if Sparse_walkers.informed_at w v > 0 then begin
        let c = Sparse_walkers.inform_all_at w v in
        informed := !informed + c;
        contacts := !contacts + c
      end
    done;
    span_end trace;
    Obs.occupancy obs ~round ~occupied:occ ~walkers:k;
    Curve_buf.push curve !informed;
    trace_round_end trace ~informed:!informed ~contacts_delta:(!contacts - c0);
    Obs.round_end obs ~round ~informed:!informed ~contacts:!contacts
  done;
  let rounds_run = !t in
  let broadcast_time = if !informed = k then Some rounds_run else None in
  Run_result.make ~all_agents_informed:broadcast_time ~broadcast_time
    ~rounds_run
    ~informed_curve:(Curve_buf.contents curve)
    ~contacts:!contacts ()

(* In-place heapsort of ids.(0 .. len-1) by (pos.(a), a): the meeting
   contacts' (vertex, agent) order, with no scratch array. *)
(* typed: on ['a array]s the comparisons would be C calls *)
let[@inline] precedes (pos : int array) a b =
  pos.(a) < pos.(b) || (pos.(a) = pos.(b) && a < b)

let rec sift_down pos (ids : int array) i len =
  let c = (2 * i) + 1 in
  if c < len then begin
    let c =
      if c + 1 < len && precedes pos ids.(c) ids.(c + 1) then c + 1 else c
    in
    if precedes pos ids.(i) ids.(c) then begin
      let t = ids.(i) in
      ids.(i) <- ids.(c);
      ids.(c) <- t;
      sift_down pos ids c len
    end
  end

let sort_by_vertex pos ids len =
  for i = (len / 2) - 1 downto 0 do
    sift_down pos ids i len
  done;
  for last = len - 1 downto 1 do
    let t = ids.(0) in
    ids.(0) <- ids.(last);
    ids.(last) <- t;
    sift_down pos ids 0 last
  done

(* lint: hot *)
let meet_exchange_dense ?obs ?trace ?tau ~lazy_walk rng g ~source ~agents
    ~max_rounds () =
  let n = Graph.n g in
  let pos = place_agents ~who:"Engine.meet_exchange" rng g agents in
  let k = Array.length pos in
  reset_tau ~who:"Engine.meet_exchange" ~parties:k tau;
  (* the agents, partitioned: order.(0 .. informed-1) are informed, the
     rest are not.  Informing a = order.(i) swaps it to the boundary, a
     slot the pass has already visited, so a pass over the uninformed part
     meets every agent once, in agent order while nothing has moved.  The
     swap is written out at each informing site: a local [inform] closure
     would be a call in the loops. *)
  let order = Array.init k Fun.id in
  let informed = ref 0 in
  let contacts = ref 0 in
  (* [stamp.(v) = round] iff, after round [round]'s walk, v holds an agent
     informed in an earlier round: a witness that informs everyone there *)
  let stamp = Array.make n 0 in
  let recording = Option.is_some obs in
  (* the agents a loop informs, in order, or the old vertices of a walk,
     until they fire; the meetings fire in (vertex, agent) order *)
  let met = event_buffer obs k in
  let nmet = ref 0 in
  (* round 0: agents standing on the source are informed *)
  for i = 0 to k - 1 do
    let a = order.(i) in
    if pos.(a) = source then begin
      Obs.contact obs source a;
      order.(i) <- order.(!informed);
      order.(!informed) <- a;
      incr informed;
      incr contacts;
      set_tau tau a 0
    end
  done;
  let source_active = ref (!informed = 0) in
  let curve = Curve_buf.create ~hint:max_rounds in
  Curve_buf.push curve !informed;
  let t = ref 0 in
  while !informed < k && !t < max_rounds do
    incr t;
    let round = !t in
    Obs.round_start obs round;
    span_begin_arg trace "meet_exchange.round" round;
    let c0 = !contacts in
    span_begin trace "walk";
    move_agents obs ~from:met ~lazy_walk rng g pos;
    span_end trace;
    span_begin trace "spread";
    (* stamp before this round's source hand-off, so its pickups are not
       witnesses until next round *)
    for i = 0 to !informed - 1 do
      stamp.(pos.(order.(i))) <- round
    done;
    (* source hand-off: the first agents to visit the source become informed
       (all of them if simultaneous).  No agent is informed while the
       source is active, so this round has no witnesses and no meetings. *)
    if !source_active then begin
      for i = 0 to k - 1 do
        let a = order.(i) in
        if pos.(a) = source then begin
          if recording then begin
            met.(!nmet) <- a;
            incr nmet
          end;
          order.(i) <- order.(!informed);
          order.(!informed) <- a;
          incr informed;
          incr contacts;
          set_tau tau a round
        end
      done;
      for i = 0 to !nmet - 1 do
        Obs.contact obs source met.(i)
      done;
      nmet := 0;
      if !informed > 0 then source_active := false
    end;
    (* meetings: every uninformed agent on a stamped vertex is informed.
       There are no chains within a round: anyone an agent informed this
       round could reach stands with the same witness. *)
    for i = !informed to k - 1 do
      let a = order.(i) in
      if stamp.(pos.(a)) = round then begin
        if recording then begin
          met.(!nmet) <- a;
          incr nmet
        end;
        order.(i) <- order.(!informed);
        order.(!informed) <- a;
        incr informed;
        incr contacts;
        set_tau tau a round
      end
    done;
    if !nmet > 0 then begin
      sort_by_vertex pos met !nmet;
      for i = 0 to !nmet - 1 do
        Obs.contact obs pos.(met.(i)) met.(i)
      done;
      nmet := 0
    end;
    span_end trace;
    Curve_buf.push curve !informed;
    trace_round_end trace ~informed:!informed ~contacts_delta:(!contacts - c0);
    Obs.round_end obs ~round ~informed:!informed ~contacts:!contacts
  done;
  let rounds_run = !t in
  let broadcast_time = if !informed = k then Some rounds_run else None in
  Run_result.make ~all_agents_informed:broadcast_time ~broadcast_time
    ~rounds_run
    ~informed_curve:(Curve_buf.contents curve)
    ~contacts:!contacts ()

let meet_exchange ?obs ?trace ?tau ?lazy_walk ?(walkers = Sparse_walkers.Dense)
    rng g ~source ~agents ~max_rounds () =
  let n = Graph.n g in
  check_common ~who:"Engine.meet_exchange" ~n ~source ~max_rounds;
  (* unsafe-default fix: on a bipartite graph the non-lazy process can
     deadlock (walks in opposite parity classes never meet), so an omitted
     [lazy_walk] resolves by testing bipartiteness — the Lazy_auto
     convention of Rumor_sim.Protocol *)
  let lazy_walk =
    match lazy_walk with
    | Some b -> b
    | None -> Rumor_graph.Algo.is_bipartite g
  in
  if Sparse_walkers.use_sparse walkers agents g then begin
    if Option.is_some tau then
      invalid_arg "Engine.meet_exchange: per-agent tau requires dense walkers";
    meet_exchange_sparse ?obs ?trace ~lazy_walk rng g ~source ~agents
      ~max_rounds ()
  end
  else
    meet_exchange_dense ?obs ?trace ?tau ~lazy_walk rng g ~source ~agents
      ~max_rounds ()

(* --------------------------------------------------------------- combined *)

(* The combined protocol: the push-pull frontier half and the
   visit-exchange walker half composed in one round loop, consuming the rng
   as placement draws, then per round n push-pull picks and k walker
   moves. *)
(* lint: hot *)
let combined ?obs ?trace ?(lazy_walk = false) rng g ~source ~agents
    ~max_rounds () =
  let n = Graph.n g in
  check_common ~who:"Engine.combined" ~n ~source ~max_rounds;
  let pos = place_agents ~who:"Engine.combined" rng g agents in
  (* the push-pull half: every vertex calls, every round *)
  check_callers ~calls:(n > 1 && max_rounds > 0) (Graph.min_degree g > 0);
  let k = Array.length pos in
  let vertex_time = Array.make n max_int in
  let agent_time = Array.make k max_int in
  vertex_time.(source) <- 0;
  let informed_vertices = ref 1 in
  let contacts = ref 0 in
  for a = 0 to k - 1 do
    if pos.(a) = source then begin
      agent_time.(a) <- 0;
      incr contacts
    end
  done;
  let curve = Curve_buf.create ~hint:max_rounds in
  Curve_buf.push curve 1;
  let recording = Option.is_some obs in
  (* the vertices the n callers called, the agents of a spread phase's
     contacts, or the old vertices of a walk, until they fire *)
  let trail = event_buffer obs (max n k) in
  let nrec = ref 0 in
  let t = ref 0 in
  while !informed_vertices < n && !t < max_rounds do
    incr t;
    let round = !t in
    Obs.round_start obs round;
    span_begin_arg trace "combined.round" round;
    let c0 = !contacts in
    (* push-pull half: every vertex calls a random neighbor; exchanges use
       the informed-before-this-round state, and an exchange informs the
       endpoint that was not informed before, unless this round already
       did *)
    span_begin trace "push_pull";
    for u = 0 to n - 1 do
      let v = Graph.unsafe_random_neighbor g rng u in
      if recording then trail.(u) <- v;
      let u_before = vertex_time.(u) < round
      and v_before = vertex_time.(v) < round in
      if u_before && not v_before then begin
        if vertex_time.(v) = max_int then begin
          vertex_time.(v) <- round;
          incr informed_vertices
        end
      end
      else if v_before && (not u_before) && vertex_time.(u) = max_int then begin
        vertex_time.(u) <- round;
        incr informed_vertices
      end
    done;
    contacts := !contacts + n;
    if recording then
      for u = 0 to n - 1 do
        Obs.contact obs u trail.(u)
      done;
    span_end trace;
    (* visit-exchange half: agents step, previously informed agents inform
       their vertex, uninformed agents learn from informed vertices *)
    span_begin trace "walk";
    move_agents obs ~from:trail ~lazy_walk rng g pos;
    span_end trace;
    span_begin trace "spread";
    nrec := 0;
    for a = 0 to k - 1 do
      if agent_time.(a) < round then begin
        let v = pos.(a) in
        if vertex_time.(v) = max_int then begin
          vertex_time.(v) <- round;
          incr informed_vertices;
          incr contacts;
          if recording then begin
            trail.(!nrec) <- a;
            incr nrec
          end
        end
      end
    done;
    for i = 0 to !nrec - 1 do
      Obs.contact obs trail.(i) pos.(trail.(i))
    done;
    nrec := 0;
    for a = 0 to k - 1 do
      if agent_time.(a) = max_int && vertex_time.(pos.(a)) <= round then begin
        agent_time.(a) <- round;
        incr contacts;
        if recording then begin
          trail.(!nrec) <- a;
          incr nrec
        end
      end
    done;
    for i = 0 to !nrec - 1 do
      Obs.contact obs pos.(trail.(i)) trail.(i)
    done;
    span_end trace;
    Curve_buf.push curve !informed_vertices;
    trace_round_end trace ~informed:!informed_vertices
      ~contacts_delta:(!contacts - c0);
    Obs.round_end obs ~round ~informed:!informed_vertices ~contacts:!contacts
  done;
  let rounds_run = !t in
  let broadcast_time =
    if !informed_vertices = n then Some rounds_run else None
  in
  Run_result.make ~broadcast_time ~rounds_run
    ~informed_curve:(Curve_buf.contents curve)
    ~contacts:!contacts ()
