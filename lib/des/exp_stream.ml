(* Batched Exp(1) sampler for Poisson clocks: refills a flat buffer of
   [batch] gaps at a time instead of calling the sampler once per ring.
   The stream hands out exactly the sequence
   [Dist.exponential rng 1.0; Dist.exponential rng 1.0; ...] in draw
   order, so the values consumed — and therefore any simulation built on
   them — are independent of the batch size; only how far the generator
   has been advanced at a given instant differs (a refill over-draws up
   to [batch - 1] gaps).  Callers that share the generator with other
   randomness must give the stream a dedicated split (see
   Rumor_protocols.Async_engine's clock-stream contract). *)

module Rng = Rumor_prob.Rng
module Dist = Rumor_prob.Dist

type t = {
  rng : Rng.t;
  buf : float array;
  mutable pos : int;  (* next unread slot; [filled] when drained *)
  mutable filled : int;  (* valid prefix of [buf] *)
}

let create ?(batch = 4096) rng =
  if batch < 1 then invalid_arg "Exp_stream.create: batch < 1";
  { rng; buf = Array.make batch 0.0; pos = 0; filled = 0 }

let refill t =
  let n = Array.length t.buf in
  for i = 0 to n - 1 do
    t.buf.(i) <- Dist.exponential t.rng 1.0
  done;
  t.pos <- 0;
  t.filled <- n

(* lint: hot *)
let next t =
  if t.pos >= t.filled then refill t;
  let x = t.buf.(t.pos) in
  t.pos <- t.pos + 1;
  x
