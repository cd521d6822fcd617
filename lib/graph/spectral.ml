(* Power iteration on the lazy walk matrix (I + P) / 2, deflating the
   stationary (constant) eigenvector.  P is self-adjoint with respect to
   the pi-weighted inner product (pi_v = deg v / 2m), so the iteration
   converges to the second eigenvector and its Rayleigh quotient. *)

let pi_weights g =
  let total = float_of_int (Graph.total_degree g) in
  Array.init (Graph.n g) (fun v -> float_of_int (Graph.degree g v) /. total)

(* the neighbour sum runs over u's CSR slice in slot order, with a local
   float accumulator: no closure, and no float boxed per arc *)
(* lint: hot *)
let lazy_step g x y =
  let n = Graph.n g in
  let sum = ref 0.0 in
  for u = 0 to n - 1 do
    sum := 0.0;
    for i = Graph.first_arc g u to Graph.first_arc g (u + 1) - 1 do
      sum := !sum +. x.(Graph.arc_head g i)
    done;
    y.(u) <- (0.5 *. x.(u)) +. (0.5 *. !sum /. float_of_int (Graph.degree g u))
  done

(* The pi-weighted inner product and the steps of one iteration, inlined
   into [iterate] so that no float is boxed per iteration. *)
let[@inline] dot pi x y =
  let sum = ref 0.0 in
  for v = 0 to Array.length pi - 1 do
    sum := !sum +. (pi.(v) *. x.(v) *. y.(v))
  done;
  !sum

(* remove the component along the constant vector *)
let[@inline] deflate pi x =
  let mean = ref 0.0 in
  for v = 0 to Array.length pi - 1 do
    mean := !mean +. (pi.(v) *. x.(v))
  done;
  for v = 0 to Array.length pi - 1 do
    x.(v) <- x.(v) -. !mean
  done

let[@inline] normalize pi x =
  let norm = sqrt (dot pi x x) in
  if norm > 0.0 then
    for v = 0 to Array.length pi - 1 do
      x.(v) <- x.(v) /. norm
    done

let iterate ?(iterations = 300) g =
  if not (Algo.is_connected g) then invalid_arg "Spectral: disconnected graph";
  let n = Graph.n g in
  if iterations < 1 then invalid_arg "Spectral: iterations < 1";
  let pi = pi_weights g in
  (* deterministic, aperiodic initial vector *)
  let x = Array.init n (fun v -> sin (float_of_int (v + 1))) in
  let y = Array.make n 0.0 in
  deflate pi x;
  normalize pi x;
  for _ = 1 to iterations do
    lazy_step g x y;
    Array.blit y 0 x 0 n;
    deflate pi x;
    normalize pi x
  done;
  lazy_step g x y;
  let lambda = dot pi x y /. dot pi x x in
  (x, lambda)

let spectral_gap ?iterations g =
  if Graph.n g <= 1 then 1.0
  else begin
    let _, lambda = iterate ?iterations g in
    Float.max 0.0 (1.0 -. lambda)
  end

let second_eigenvector ?iterations g = fst (iterate ?iterations g)

let cut_conductance g side =
  let n = Graph.n g in
  if Array.length side <> n then invalid_arg "Spectral.cut_conductance: bad side array";
  let cut = ref 0 and vol_in = ref 0 and vol_out = ref 0 in
  for u = 0 to n - 1 do
    if side.(u) then vol_in := !vol_in + Graph.degree g u
    else vol_out := !vol_out + Graph.degree g u
  done;
  if !vol_in = 0 || !vol_out = 0 then
    invalid_arg "Spectral.cut_conductance: one side is empty";
  Graph.iter_edges g (fun u v -> if side.(u) <> side.(v) then incr cut);
  float_of_int !cut /. float_of_int (min !vol_in !vol_out)

let conductance_sweep ?iterations g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Spectral.conductance_sweep: trivial graph";
  let x = second_eigenvector ?iterations g in
  let order = Array.init n (fun v -> v) in
  Array.sort (fun a b -> Float.compare x.(a) x.(b)) order;
  (* sweep: move vertices into side S in eigenvector order, maintaining the
     cut size incrementally *)
  let in_s = Array.make n false in
  let total_vol = Graph.total_degree g in
  let cut = ref 0 and vol = ref 0 in
  let best = ref infinity in
  for i = 0 to n - 2 do
    let v = order.(i) in
    let to_s = Graph.fold_neighbors g v (fun acc w -> if in_s.(w) then acc + 1 else acc) 0 in
    cut := !cut + Graph.degree g v - (2 * to_s);
    vol := !vol + Graph.degree g v;
    in_s.(v) <- true;
    let phi = float_of_int !cut /. float_of_int (min !vol (total_vol - !vol)) in
    if phi < !best then best := phi
  done;
  !best

let conductance_exact ?(max_n = 20) g =
  let n = Graph.n g in
  if n > max_n then
    invalid_arg
      (Printf.sprintf "Spectral.conductance_exact: n = %d exceeds max_n = %d" n max_n);
  if n < 2 then invalid_arg "Spectral.conductance_exact: trivial graph";
  (* vertex 0's side is fixed (phi(S) = phi(complement)), halving the work *)
  let best = ref infinity in
  let side = Array.make n false in
  for mask = 1 to (1 lsl (n - 1)) - 1 do
    for v = 1 to n - 1 do
      side.(v) <- mask land (1 lsl (v - 1)) <> 0
    done;
    side.(0) <- false;
    let phi = cut_conductance g side in
    if phi < !best then best := phi
  done;
  !best
