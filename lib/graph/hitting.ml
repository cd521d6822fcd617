module Linalg = Rumor_prob.Linalg

(* Hitting times to [target] satisfy, for u <> target:
     h(u) = 1 + sum_{v in N(u)} h(v) / deg(u),   h(target) = 0.
   We index the n-1 non-target vertices and solve (I - Q) h = 1 where Q is
   the walk restricted to them.  A lazy walk doubles every hitting time
   (each step is a coin flip times a real move), so it is computed by
   scaling rather than re-solving. *)
let hitting_times ?(lazy_walk = false) g target =
  let n = Graph.n g in
  if target < 0 || target >= n then
    invalid_arg "Hitting.hitting_times: target out of range";
  if not (Algo.is_connected g) then
    invalid_arg "Hitting.hitting_times: disconnected graph";
  if n = 1 then [| 0.0 |]
  else begin
    (* map vertices != target to equation indices *)
    let index = Array.make n (-1) in
    let count = ref 0 in
    for v = 0 to n - 1 do
      if v <> target then begin
        index.(v) <- !count;
        incr count
      end
    done;
    let size = n - 1 in
    let a = Array.make_matrix size size 0.0 in
    let b = Array.make size 1.0 in
    for u = 0 to n - 1 do
      if u <> target then begin
        let i = index.(u) in
        a.(i).(i) <- 1.0;
        let p = 1.0 /. float_of_int (Graph.degree g u) in
        Graph.iter_neighbors g u (fun v ->
            if v <> target then begin
              let j = index.(v) in
              a.(i).(j) <- a.(i).(j) -. p
            end)
      end
    done;
    let h = Linalg.solve a b in
    let scale = if lazy_walk then 2.0 else 1.0 in
    Array.init n (fun v -> if v = target then 0.0 else scale *. h.(index.(v)))
  end

(* Meeting time of two independent walks: the product chain on ordered
   pairs (a, b), absorbing on the diagonal.  m(a,b) = 1 + average over the
   joint next states of m; for lazy walks each walk independently stays
   with probability 1/2. *)
let max_meeting_time ?(lazy_walk = false) ?(max_n = 40) g =
  let n = Graph.n g in
  if n > max_n then
    invalid_arg
      (Printf.sprintf "Hitting.max_meeting_time: n = %d exceeds max_n = %d" n max_n);
  if not (Algo.is_connected g) then
    invalid_arg "Hitting.max_meeting_time: disconnected graph";
  (* off-diagonal ordered pairs *)
  let index = Array.make (n * n) (-1) in
  let count = ref 0 in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then begin
        index.((a * n) + b) <- !count;
        incr count
      end
    done
  done;
  let size = !count in
  let m = Array.make_matrix size size 0.0 in
  let rhs = Array.make size 1.0 in
  (* enumerate one walk's moves including the lazy stay *)
  let moves u =
    let deg = float_of_int (Graph.degree g u) in
    let step_prob = if lazy_walk then 0.5 /. deg else 1.0 /. deg in
    let out = ref (if lazy_walk then [ (u, 0.5) ] else []) in
    Graph.iter_neighbors g u (fun v -> out := (v, step_prob) :: !out);
    !out
  in
  for a = 0 to n - 1 do
    let moves_a = moves a in
    for b = 0 to n - 1 do
      if a <> b then begin
        let i = index.((a * n) + b) in
        m.(i).(i) <- m.(i).(i) +. 1.0;
        let moves_b = moves b in
        List.iter
          (fun (a', pa) ->
            List.iter
              (fun (b', pb) ->
                if a' <> b' then begin
                  let j = index.((a' * n) + b') in
                  m.(i).(j) <- m.(i).(j) -. (pa *. pb)
                end)
              moves_b)
          moves_a
      end
    done
  done;
  let sol =
    try Linalg.solve m rhs
    with Invalid_argument _ ->
      invalid_arg
        "Hitting.max_meeting_time: singular system (bipartite parity trap; \
         use ~lazy_walk:true)"
  in
  Array.fold_left Float.max 0.0 sol
