let check_p name p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Dist.%s: p=%g outside [0,1]" name p)

(* Waiting-time method: the number of successes among n Bernoulli(p) trials
   equals the number of geometric(p) inter-arrival gaps that fit in n.
   Expected cost O(n*p + 1), exact for all n, p. *)
let binomial_by_waiting g n p =
  let log1mp = log1p (-.p) in
  let count = ref 0 in
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    (* geometric gap >= 1 distributed as ceil(log(U)/log(1-p)) *)
    let u = 1.0 -. Rng.float g 1.0 in
    let gap = int_of_float (ceil (log u /. log1mp)) in
    let gap = if gap < 1 then 1 else gap in
    pos := !pos + gap;
    if !pos <= n then incr count else continue := false
  done;
  !count

let binomial g n p =
  if n < 0 then invalid_arg "Dist.binomial: n < 0";
  check_p "binomial" p;
  if Float.equal p 0.0 || n = 0 then 0
  else if Float.equal p 1.0 then n
  else if p > 0.5 then n - binomial_by_waiting g n (1.0 -. p)
  else if n <= 32 then begin
    (* direct simulation: cheap and exact for tiny n *)
    let count = ref 0 in
    for _ = 1 to n do
      if Rng.bernoulli g p then incr count
    done;
    !count
  end
  else binomial_by_waiting g n p

(* Ziggurat for Exp(1) (Marsaglia & Tsang 2000), 256 layers.  Layer i >= 1
   is the rectangle [0, x_i] x [f x_i, f x_(i+1)] under f x = e^-x, with
   x_1 = r > x_2 > ... > x_256 = 0; layer 0 is the base strip [0, r] x
   [0, f r] plus the tail beyond r, drawn as a rectangle of width
   x_0 = v / f r.  Every layer has area v, so a uniform layer and a
   uniform abscissa x = u x_i in it give a point under the curve (accept)
   unless x >= x_(i+1): then it is in the wedge of layer i >= 1, or in the
   tail of layer 0.  [zig_k.(i)] is x_(i+1) / x_i scaled to 53 bits, so
   the fast test is one integer compare of the uniform's bits, and
   [zig_w.(i)] = x_i / 2^53 turns those bits into x. *)
let zig_r = 7.69711747013104972
let zig_v = 0.0039496598225815571993
let zig_scale = 9007199254740992.0 (* 2^53 *)

(* x_0 .. x_256 *)
let zig_x =
  let x = Array.make 257 0.0 in
  x.(0) <- zig_v /. exp (-.zig_r);
  x.(1) <- zig_r;
  for i = 1 to 254 do
    (* f x_(i+1) = f x_i + v / x_i *)
    x.(i + 1) <- -.log (exp (-.x.(i)) +. (zig_v /. x.(i)))
  done;
  x

let zig_k = Array.init 256 (fun i -> Float.to_int (zig_x.(i + 1) /. zig_x.(i) *. zig_scale))
let zig_w = Array.init 256 (fun i -> zig_x.(i) /. zig_scale)
let zig_f = Array.map (fun x -> exp (-.x)) zig_x

(* One draw's fast path: one output gives the layer (its low 8 bits) and
   the abscissa (its high 53 bits); [slow] takes the rest.  Inlined into
   [exponential] and into the slow path's restarts, so the inlined
   sampler carries no recursion. *)
let[@inline] zig_try g slow =
  let bits = Rng.bits64 g in
  let i = Int64.to_int bits land 255 in
  let u = Int64.to_int (Int64.shift_right_logical bits 11) in
  let x = Float.of_int u *. Array.unsafe_get zig_w i in
  if u < Array.unsafe_get zig_k i then x else slow g i x

(* The draws the fast path leaves: the tail beyond r (layer 0), by
   memorylessness r + Exp(1); or the wedge of layer i, where x is accepted
   when a uniform height in [f x_i, f x_(i+1)] falls below f x, and a
   rejected point restarts the whole draw. *)
let[@inline never] rec zig_slow g i x =
  if i = 0 then zig_r +. zig_try g zig_slow
  else if zig_f.(i) +. (Rng.float g 1.0 *. (zig_f.(i + 1) -. zig_f.(i))) < exp (-.x)
  then x
  else zig_try g zig_slow

let[@inline] exponential g rate =
  if not (rate > 0.0) then invalid_arg "Dist.exponential: rate must be positive";
  zig_try g zig_slow /. rate

(* Chained conditional binomials: bin i receives Bin(remaining, w_i / rest)
   where rest is the weight mass not yet assigned.  Each split reuses
   {!binomial}'s small-n / waiting-time strategy, so the whole vector is
   exact and costs O(sum over bins of remaining * p_i + bins).  Zero-weight
   bins fall through binomial's p = 0 fast path and receive 0. *)
let multinomial g n w =
  if n < 0 then invalid_arg "Dist.multinomial: n < 0";
  let bins = Array.length w in
  if bins = 0 then invalid_arg "Dist.multinomial: empty weights";
  let total = ref 0.0 in
  for i = 0 to bins - 1 do
    if not (w.(i) >= 0.0) then invalid_arg "Dist.multinomial: negative weight";
    total := !total +. w.(i)
  done;
  if not (!total > 0.0) then invalid_arg "Dist.multinomial: non-positive total";
  (* chain only up to the last positive-weight bin: the remainder is assigned
     there outright, so subtraction drift in [rest] can never leak mass into
     a zero-weight bin *)
  let last_pos = ref 0 in
  for i = 0 to bins - 1 do
    if w.(i) > 0.0 then last_pos := i
  done;
  let counts = Array.make bins 0 in
  let remaining = ref n in
  let rest = ref !total in
  let i = ref 0 in
  while !remaining > 0 && !i < !last_pos do
    let p = w.(!i) /. !rest in
    let p = if p > 1.0 then 1.0 else if p < 0.0 then 0.0 else p in
    let c = binomial g !remaining p in
    counts.(!i) <- c;
    remaining := !remaining - c;
    rest := !rest -. w.(!i);
    incr i
  done;
  if !remaining > 0 then counts.(!last_pos) <- !remaining;
  counts
