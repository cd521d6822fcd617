module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Placement = Rumor_agents.Placement

(* Growable int vector for the per-vertex shared choice lists. *)
module Ivec = struct
  type v = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 4 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let bigger = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let length v = v.len
end

type t = {
  graph : Graph.t;
  source : int;
  w_rng : Rng.t;       (* draws the shared w_u entries, in demand order *)
  walk_rng : Rng.t;    (* placement + uninformed-agent moves *)
  lists : Ivec.v array;
  cursor : int array;  (* next unconsumed index per vertex, visitx side *)
  mutable visitx_done : bool;
}

let create rng graph ~source =
  if source < 0 || source >= Graph.n graph then
    invalid_arg "Coupling.create: source out of range";
  let w_rng = Rng.split rng in
  let walk_rng = Rng.split rng in
  {
    graph;
    source;
    w_rng;
    walk_rng;
    lists = Array.init (Graph.n graph) (fun _ -> Ivec.create ());
    cursor = Array.make (Graph.n graph) 0;
    visitx_done = false;
  }

let shared_choice c u i =
  let v = c.lists.(u) in
  while Ivec.length v <= i do
    Ivec.push v (Graph.random_neighbor c.graph c.w_rng u)
  done;
  Ivec.get v i

type visitx_outcome = {
  vertex_time : int array;
  agent_time : int array;
  c_counter : int array;
  parent : int array;
  completed : bool;
  rounds_run : int;
  history : int array array option;
}

let run_visit_exchange ?(record_history = false) c ~agents ~max_rounds =
  if c.visitx_done then
    invalid_arg "Coupling.run_visit_exchange: already run for this coupling";
  c.visitx_done <- true;
  let g = c.graph in
  let n = Graph.n g in
  let pos = Placement.place c.walk_rng agents g in
  let k = Array.length pos in
  let from = Array.make k 0 in
  let vertex_time = Array.make n max_int in
  let agent_time = Array.make k max_int in
  let c_counter = Array.make n max_int in
  let parent = Array.make n (-1) in
  let cum = Array.make n 0 in   (* visits through the last completed round *)
  let snap = Array.make n 0 in  (* cum value when the vertex was informed *)
  let history = ref [] in
  let record_round () =
    if record_history then begin
      let z = Array.make n 0 in
      Array.iter (fun v -> z.(v) <- z.(v) + 1) pos;
      history := z :: !history
    end
  in
  (* round 0: source informed with C_s(0) = 0 and zero pre-inform visits;
     cum then absorbs the initial placement Z(0) *)
  vertex_time.(c.source) <- 0;
  c_counter.(c.source) <- 0;
  snap.(c.source) <- 0;
  let informed_vertices = ref 1 in
  for a = 0 to k - 1 do
    if pos.(a) = c.source then agent_time.(a) <- 0
  done;
  record_round ();
  Array.iter (fun v -> cum.(v) <- cum.(v) + 1) pos;
  let t = ref 0 in
  while !informed_vertices < n && !t < max_rounds do
    incr t;
    let round = !t in
    (* phase 1: agents step in id order; an agent leaving a vertex that was
       informed before this round consumes the next shared w entry — this
       is exactly the p_u(i) = w_u(i) coupling of Section 5.1 *)
    for a = 0 to k - 1 do
      let u = pos.(a) in
      from.(a) <- u;
      let dest =
        if vertex_time.(u) < round then begin
          let i = c.cursor.(u) in
          c.cursor.(u) <- i + 1;
          shared_choice c u i
        end
        else Graph.random_neighbor g c.walk_rng u
      in
      pos.(a) <- dest
    done;
    (* phase 2: previously informed agents inform their vertex; maintain
       C_u(t_u) = min over arrivals of C_f(t) = cbase(f) + cum(f) - snap(f),
       where cum currently holds visits through round t-1 *)
    for a = 0 to k - 1 do
      if agent_time.(a) < round then begin
        let v = pos.(a) in
        if vertex_time.(v) = max_int || vertex_time.(v) = round then begin
          let f = from.(a) in
          (* the from-vertex of a previously informed agent is necessarily
             informed strictly before this round *)
          assert (vertex_time.(f) < round);
          let candidate = c_counter.(f) + cum.(f) - snap.(f) in
          if vertex_time.(v) = max_int then begin
            vertex_time.(v) <- round;
            incr informed_vertices;
            snap.(v) <- cum.(v);
            c_counter.(v) <- candidate;
            parent.(v) <- f
          end
          else if candidate < c_counter.(v) then begin
            c_counter.(v) <- candidate;
            parent.(v) <- f
          end
        end
      end
    done;
    (* phase 3: uninformed agents on informed vertices become informed *)
    for a = 0 to k - 1 do
      if agent_time.(a) = max_int && vertex_time.(pos.(a)) <= round then
        agent_time.(a) <- round
    done;
    (* close the round: record Z(t) and fold it into cum *)
    record_round ();
    Array.iter (fun v -> cum.(v) <- cum.(v) + 1) pos
  done;
  {
    vertex_time;
    agent_time;
    c_counter;
    parent;
    completed = !informed_vertices = n;
    rounds_run = !t;
    history =
      (if record_history then Some (Array.of_list (List.rev !history)) else None);
  }

let run_push c ~max_rounds =
  let g = c.graph in
  let n = Graph.n g in
  let tau = Array.make n max_int in
  let order = Array.make n 0 in
  (* consumed.(u): how many shared entries u's push side has used so far *)
  let consumed = Array.make n 0 in
  tau.(c.source) <- 0;
  order.(0) <- c.source;
  let count = ref 1 in
  let t = ref 0 in
  while !count < n && !t < max_rounds do
    incr t;
    let active = !count in
    for i = 0 to active - 1 do
      let u = order.(i) in
      let j = consumed.(u) in
      consumed.(u) <- j + 1;
      let v = shared_choice c u j in
      if tau.(v) = max_int then begin
        tau.(v) <- !t;
        order.(!count) <- v;
        incr count
      end
    done
  done;
  tau

let lemma13_violations ~tau o =
  let violations = ref [] in
  Array.iteri
    (fun u tu ->
      if tu < max_int && tau.(u) < max_int && o.c_counter.(u) < max_int then
        if tau.(u) > o.c_counter.(u) then violations := u :: !violations)
    o.vertex_time;
  List.rev !violations

let canonical_walk o u =
  if o.vertex_time.(u) = max_int then
    invalid_arg "Coupling.canonical_walk: vertex not informed";
  (* parent chain back to the source *)
  let rec chain v acc = if o.parent.(v) = -1 then v :: acc else chain o.parent.(v) (v :: acc) in
  let path = chain u [] in
  let k = o.vertex_time.(u) in
  let walk = Array.make (k + 1) (List.hd path) in
  List.iter
    (fun v ->
      (* v occupies positions t_v .. end; earlier vertices already filled the
         prefix, so writing each suffix in path order yields stay-puts *)
      for t = o.vertex_time.(v) to k do
        walk.(t) <- v
      done)
    path;
  walk

let congestion o walk =
  match o.history with
  | None -> invalid_arg "Coupling.congestion: history was not recorded"
  | Some hist ->
      let q = ref 0 in
      for t = 0 to Array.length walk - 2 do
        q := !q + hist.(t).(walk.(t))
      done;
      !q

let max_neighborhood_load o g =
  match o.history with
  | None -> invalid_arg "Coupling.max_neighborhood_load: history was not recorded"
  | Some hist ->
      let best = ref 0 in
      Array.iter
        (fun z ->
          for u = 0 to Graph.n g - 1 do
            let load = Graph.fold_neighbors g u (fun acc v -> acc + z.(v)) 0 in
            if load > !best then best := load
          done)
        hist;
      !best
