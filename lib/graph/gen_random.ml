module Rng = Rumor_prob.Rng
module Trace = Rumor_obs.Trace
module Counters = Rumor_obs.Counters

let erdos_renyi ?trace rng ~n ~p =
  if n < 1 then invalid_arg "Gen_random.erdos_renyi: n < 1";
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Gen_random.erdos_renyi: bad p";
  let total = n * (n - 1) / 2 in
  let b =
    Graph.Builder.create ?trace
      ~capacity:(if p >= 1.0 then total else 1 + int_of_float (p *. float_of_int total))
      ~n ()
  in
  if p >= 1.0 then
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        Graph.Builder.add_edge b u v
      done
    done
  else if p > 0.0 then begin
    (* Iterate over the n(n-1)/2 potential edges with geometric skips: the
       index of the next present edge is current + Geometric(p). *)
    let log1mp = log1p (-.p) in
    let idx = ref (-1) in
    (* The linear index is monotone, so the (row, col) decode keeps a running
       row cursor instead of rescanning from row 0 per edge — the whole sweep
       is O(n + m), which is what makes p ~ ln n / n at n = 10^7 feasible. *)
    let row = ref 0 in
    let row_start = ref 0 in
    let continue = ref true in
    while !continue do
      let u = 1.0 -. Rng.float rng 1.0 in
      let gap = int_of_float (ceil (log u /. log1mp)) in
      let gap = if gap < 1 then 1 else gap in
      idx := !idx + gap;
      if !idx >= total then continue := false
      else begin
        while !idx - !row_start >= n - 1 - !row do
          row_start := !row_start + (n - 1 - !row);
          incr row
        done;
        Graph.Builder.add_edge b !row (!row + 1 + (!idx - !row_start))
      end
    done
  end;
  Graph.Builder.finish b

let gnm ?trace rng ~n ~m =
  if n < 1 then invalid_arg "Gen_random.gnm: n < 1";
  let max_m = n * (n - 1) / 2 in
  if m < 0 || m > max_m then invalid_arg "Gen_random.gnm: m out of range";
  let seen = Hashtbl.create (2 * m) in
  let b = Graph.Builder.create ?trace ~capacity:(max 1 m) ~n () in
  let count = ref 0 in
  while !count < m do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let key = (min u v * n) + max u v in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        Graph.Builder.add_edge b (min u v) (max u v);
        incr count
      end
    end
  done;
  Graph.Builder.finish b

let complete_builder ?trace n =
  let b = Graph.Builder.create ?trace ~capacity:(n * (n - 1) / 2) ~n () in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      Graph.Builder.add_edge b u v
    done
  done;
  Graph.Builder.finish b

(* The regular sampler's scratch tables (stubs, neighbour lists) hold
   4-byte ids in [Bytes]: half an [int array]'s footprint, 24 KB each for
   a 500 x 12 draw.  Every index is below n d by construction, hence the
   unchecked accesses. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] id b i = Int32.to_int (get32u b (4 * i))
let[@inline] set_id b i v = set32u b (4 * i) (Int32.of_int v)

(* Configuration-model pairing followed by defect repair: loops and parallel
   edges left by the random pairing are removed by random degree-preserving
   edge switches.  This is the standard practical generator; the output
   distribution is not exactly uniform over d-regular graphs but is
   contiguity-equivalent for the structural properties measured here. *)
let rec random_regular ?trace rng ~n ~d =
  if d <= 0 || d >= n then invalid_arg "Gen_random.random_regular: need 0 < d < n";
  if n * d mod 2 <> 0 then invalid_arg "Gen_random.random_regular: n*d must be even";
  (* refused before the pairing sizes its tables by n d *)
  if n > Graph.max_vertices then
    invalid_arg
      (Printf.sprintf "Gen_random.random_regular: %d vertices; ids must fit in 24 bits (n <= %d)"
         n Graph.max_vertices);
  if d = n - 1 then
    (* the complete graph is the unique (n-1)-regular graph on n vertices,
       and the switch repair cannot operate there *)
    complete_builder ?trace n
  else if 2 * d > n then
    (* dense regime: sample the (n-1-d)-regular complement instead, where
       the pairing model is simple with decent probability *)
    complement ?trace (random_regular ?trace rng ~n ~d:(n - 1 - d))
  else random_regular_sparse ?trace rng ~n ~d

and complement ?trace g =
  let n = Graph.n g in
  let b = Graph.Builder.create ?trace ~n () in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if not (Graph.mem_edge g u v) then Graph.Builder.add_edge b u v
    done
  done;
  Graph.Builder.finish b

and random_regular_sparse ?trace rng ~n ~d =
  let half = n * d / 2 in
  (* The healthy edges as a pair set without hashing: vertex v's slots
     [v*d, v*d + cnt.(v)) of [nbr] hold the other endpoint of each healthy
     edge at v.  A vertex has d stubs, so it never holds more than d healthy
     edges; a lookup scans at most d slots. *)
  let nbr = Bytes.create (4 * n * d) in
  let cnt = Array.make n 0 in
  (* slot of edge {a, b} in a's list, or -1 *)
  let slot a b =
    let s = ref (a * d) and hi = (a * d) + cnt.(a) in
    while !s < hi && id nbr !s <> b do
      incr s
    done;
    if !s < hi then !s else -1
  in
  let link a b =
    set_id nbr ((a * d) + cnt.(a)) b;
    cnt.(a) <- cnt.(a) + 1
  in
  let unlink a b =
    let s = slot a b in
    cnt.(a) <- cnt.(a) - 1;
    set_id nbr s (id nbr ((a * d) + cnt.(a)))
  in
  (* the pairing: edge i joins stubs 2i and 2i+1, rewired in place by the
     repair switches *)
  let stubs = Bytes.create (4 * n * d) in
  let attempt () =
    for v = 0 to n - 1 do
      for s = v * d to (v * d) + d - 1 do
        set_id stubs s v
      done
    done;
    (* [Rng.shuffle]'s Fisher-Yates, with the same draws in the same order *)
    for i = (n * d) - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = id stubs i in
      set_id stubs i (id stubs j);
      set_id stubs j t
    done;
    Array.fill cnt 0 n 0;
    (* a loop, or a repeat of an earlier edge, is defective; [bad] lists
       the defective indices in the order they are found, and [pending]
       flags those not yet repaired *)
    let bad = ref (Array.make 64 0) in
    let nbad = ref 0 in
    let pending = Bytes.make half '\000' in
    for i = 0 to half - 1 do
      let u = id stubs (2 * i) and v = id stubs ((2 * i) + 1) in
      (* [hit] turns negative iff u = v or v stands in one of u's cnt.(u)
         live slots: a scan of all d slots with the dead ones masked by
         k - cnt.(u) >= 0, and no exit to mispredict (ids are >= 0, so
         (x lxor v) - 1 < 0 iff x = v) *)
      let base = u * d and live = cnt.(u) in
      let hit = ref ((u lxor v) - 1) in
      for k = 0 to d - 1 do
        hit := !hit lor (((id nbr (base + k) lxor v) - 1) land (k - live))
      done;
      if !hit < 0 then begin
        if !nbad = Array.length !bad then begin
          let grown = Array.make (2 * !nbad) 0 in
          Array.blit !bad 0 grown 0 !nbad;
          bad := grown
        end;
        !bad.(!nbad) <- i;
        incr nbad;
        Bytes.set pending i '\001'
      end
      else begin
        link u v;
        link v u
      end
    done;
    (* Repair each defective pair by switching with a random healthy edge,
       latest-found defect first. *)
    let switches = ref 0 in
    let max_switches = (200 * (!nbad + 1)) + 1000 in
    let next = ref (!nbad - 1) in
    while !next >= 0 && !switches <= max_switches do
      incr switches;
      let i = !bad.(!next) in
      let j = Rng.int rng half in
      let u = id stubs (2 * i) and v = id stubs ((2 * i) + 1) in
      let x = id stubs (2 * j) and y = id stubs ((2 * j) + 1) in
      (* propose (u,x) and (v,y); healthy iff simple and fresh, and j is
         itself healthy (then j is the one edge {x,y}) *)
      let ok =
        j <> i && u <> x && v <> y
        && slot u x < 0
        && slot v y < 0
        && not ((u = v && x = y) || (u = y && x = v))
        && Bytes.get pending j = '\000'
      in
      if ok then begin
        unlink x y;
        unlink y x;
        set_id stubs ((2 * i) + 1) x;
        set_id stubs (2 * j) v;
        link u x;
        link x u;
        link v y;
        link y v;
        Bytes.set pending i '\000';
        decr next
      end
    done;
    !next < 0
  in
  let rec loop tries =
    if tries > 100 then failwith "Gen_random.random_regular: repair failed repeatedly"
    else if not (attempt ()) then loop (tries + 1)
  in
  (* the pairing and its repair generate the edges *)
  (match trace with None -> () | Some tr -> Trace.begin_span tr "graph.edge_gen");
  loop 0;
  (match trace with
  | None -> ()
  | Some tr ->
      Trace.end_span tr (* graph.edge_gen *);
      Counters.add (Counters.counter (Trace.counters tr) "edges_built") half;
      Trace.begin_span tr "graph.csr_fill");
  (* The transpose: every vertex now holds its d neighbours in [nbr], so
     walking a in ascending order and appending a to each neighbour's
     slice writes every slice sorted — b's slice receives its neighbours
     in the order a rises.  No edge list, no sort; [cnt] is reused as the
     fill cursor. *)
  let slots = Graph.Slots.create (n * d) in
  Array.fill cnt 0 n 0;
  for a = 0 to n - 1 do
    for s = a * d to (a * d) + d - 1 do
      let b = id nbr s in
      let c = cnt.(b) in
      Graph.Slots.set slots ((b * d) + c) a;
      cnt.(b) <- c + 1
    done
  done;
  let g = Graph.of_csr ~n ~offsets:(Array.init (n + 1) (fun v -> v * d)) ~slots in
  (match trace with None -> () | Some tr -> Trace.end_span tr (* graph.csr_fill *));
  g

let preferential_attachment ?trace rng ~n ~m =
  if m < 1 then invalid_arg "Gen_random.preferential_attachment: m < 1";
  if n <= m then invalid_arg "Gen_random.preferential_attachment: need n > m";
  (* repeated-endpoints trick: sampling a uniform element of the flat edge-
     endpoint array is exactly degree-proportional sampling *)
  let seed_edges = m * (m + 1) / 2 in
  let total_edges = seed_edges + (m * (n - m - 1)) in
  (* the Builder refuses an oversize n before the endpoint table is sized *)
  let b = Graph.Builder.create ?trace ~capacity:total_edges ~n () in
  let endpoints = Array.make (2 * total_edges) 0 in
  let endpoint_count = ref 0 in
  let add_edge u v =
    Graph.Builder.add_edge b u v;
    endpoints.(!endpoint_count) <- u;
    endpoints.(!endpoint_count + 1) <- v;
    endpoint_count := !endpoint_count + 2
  in
  for u = 0 to m do
    for v = u + 1 to m do
      add_edge u v
    done
  done;
  for v = m + 1 to n - 1 do
    (* choose m distinct targets against the state before v's own edges *)
    let snapshot = !endpoint_count in
    let targets = Hashtbl.create m in
    while Hashtbl.length targets < m do
      let u = endpoints.(Rng.int rng snapshot) in
      if not (Hashtbl.mem targets u) then Hashtbl.add targets u ()
    done;
    Hashtbl.iter (fun u () -> add_edge u v) targets
  done;
  Graph.Builder.finish b

let random_regular_connected ?trace rng ~n ~d =
  let rec loop tries =
    if tries > 100 then
      failwith "Gen_random.random_regular_connected: no connected sample in 100 tries"
    else
      let g = random_regular ?trace rng ~n ~d in
      if Algo.is_connected g then g else loop (tries + 1)
  in
  loop 0
