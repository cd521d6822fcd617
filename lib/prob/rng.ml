(* xoshiro256** with SplitMix64 seeding (Blackman & Vigna).  All arithmetic
   is on Int64 with wrap-around semantics, which OCaml's Int64 provides.

   The 256-bit state is four native-endian 64-bit words in a 32-byte Bytes
   (s0 at offset 0 .. s3 at 24) rather than a record of mutable int64
   fields: a record field holds a boxed Int64, so every state update would
   allocate, while the unchecked Bytes accessors below load and store
   unboxed values — a draw allocates nothing once [bits64] is inlined into
   its caller. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let make s0 s1 s2 s3 =
  let g = Bytes.create 32 in
  set64 g 0 s0;
  set64 g 8 s1;
  set64 g 16 s2;
  set64 g 24 s3;
  g

(* --- SplitMix64: used to expand a single seed into initial state --- *)

let splitmix_gamma = 0x9E3779B97F4A7C15L

let splitmix64_next state =
  let z = Int64.add !state splitmix_gamma in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let state = ref seed in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  (* xoshiro must not start from the all-zero state; SplitMix64 outputs are
     zero only for one input each, so four simultaneous zeros cannot happen,
     but guard anyway. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    make 1L 2L 3L 4L
  else make s0 s1 s2 s3

let of_int seed = create (Int64.of_int seed)

let copy g = Bytes.copy g

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* the state transition alone, from the state words [bits64] has loaded:
   [skip] runs it without the output, which the compiler (without
   flambda) would box to discard *)
let[@inline] advance g s0 s1 s2 s3 =
  let t = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set64 g 0 s0;
  set64 g 8 s1;
  set64 g 16 (Int64.logxor s2 t);
  set64 g 24 (rotl s3 45)

let[@inline] bits64 g =
  let s0 = get64 g 0 and s1 = get64 g 8 and s2 = get64 g 16 and s3 = get64 g 24 in
  advance g s0 s1 s2 s3;
  Int64.mul (rotl (Int64.mul s1 5L) 7) 9L

let split g = create (bits64 g)

let split_n g n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  if n = 0 then [||]
  else begin
    (* an explicit loop, not Array.init: the children must be split off [g]
       in index order, and Array.init's evaluation order is unspecified *)
    let children = Array.make n g in
    for i = 0 to n - 1 do
      children.(i) <- split g
    done;
    children
  end

(* 61 uniform bits of the next output, as a non-negative native int *)
let[@inline] draw61 g = Int64.to_int (Int64.logand (bits64 g) 0x1FFFFFFFFFFFFFFFL)

(* The high 32 bits of the next output, as a non-negative native int *)
let[@inline] draw32 g = Int64.to_int (Int64.shift_right_logical (bits64 g) 32)

(* [below] is the draw every kernel loop makes, with no argument check:
   the caller checks once per run that its bounds lie in [1, 2^30], and the
   loop pays only for the draw.  It keeps its rejection loop inline, with
   no call on a path that returns: a call anywhere in a kernel's loop makes
   the compiler spill every value live across it, so each caller's
   per-contact loop would pay stores and reloads for a branch it almost
   never takes.

   It is Lemire's multiply-shift: with x uniform on 32 bits, m = x * bound
   (< 2^62, a native int) and m lsr 32 is uniform on [0, bound) once the
   draws whose low word falls below 2^32 mod bound are rejected.  That
   threshold, (2^32 - bound) mod bound, needs the one division, and only
   when the low word is below [bound], which happens with probability
   bound / 2^32.  For bound = 1 the threshold is 0: one output, never
   rejected, which is what {!skip} advances by. *)
(* lint: hot *)
let[@inline] below g bound =
  let m = ref (draw32 g * bound) in
  if !m land 0xFFFF_FFFF < bound then begin
    let threshold = ((1 lsl 32) - bound) mod bound in
    while !m land 0xFFFF_FFFF < threshold do
      m := draw32 g * bound
    done
  end;
  !m lsr 32

(* [int] is [below] behind its argument checks, for bounds up to 2^30.  The
   errors are raised directly — [raise] does not return, so nothing is
   live across it and the inlined draw stays call-free.

   Bounds above 2^30, where x * bound can leave the 63-bit native int,
   reject on 61 bits with one division a draw: r is rejected iff it falls
   in the incomplete last block, r >= (2^61 / bound) * bound, that is
   r - r mod bound > 2^61 - bound.  A bound above 2^61 would reject every
   draw, so it is refused instead of spinning. *)
(* lint: hot *)
let[@inline] int g bound =
  if bound <= 0 then raise (Invalid_argument "Rng.int: bound must be positive");
  if bound <= 1 lsl 30 then below g bound
  else begin
    if bound > 1 lsl 61 then raise (Invalid_argument "Rng.int: bound above 2^61");
    let r = ref (draw61 g) in
    let v = ref (!r mod bound) in
    while !r - !v > (1 lsl 61) - bound do
      r := draw61 g;
      v := !r mod bound
    done;
    !v
  end

(* [k] outputs dropped: the state steps [k] times and no output is formed,
   so nothing is boxed.  Inlined, like [below], so a kernel loop that
   skips stays call-free. *)
(* lint: hot *)
let[@inline] skip g k =
  for _ = 1 to k do
    advance g (get64 g 0) (get64 g 8) (get64 g 16) (get64 g 24)
  done

let[@inline] float g x =
  (* 53 random bits mapped to [0,1), scaled by x; they fit an OCaml int,
     and [Float.of_int] converts inline where [Int64.to_float] is a C call *)
  let bits = Float.of_int (Int64.to_int (Int64.shift_right_logical (bits64 g) 11)) in
  bits *. (1.0 /. 9007199254740992.0) *. x

(* lint: hot *)
let[@inline] bool g = Int64.logand (bits64 g) 1L = 1L

let bernoulli g p =
  if p <= 0.0 then false else if p >= 1.0 then true else float g 1.0 < p
