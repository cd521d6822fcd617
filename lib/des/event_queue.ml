(* Array-backed binary min-heap ordered by (time, sequence number); the
   sequence number makes same-time events FIFO, so a run is a deterministic
   function of the inserted events. *)

type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { data = [||]; len = 0; next_seq = 0 }

let is_empty q = q.len = 0
let size q = q.len

(* Float.compare, not the polymorphic operators: the heap order is the DES
   hot loop, and generic compare both boxes the floats and trips lint rule
   R1.  NaN times are rejected at [push], so the IEEE/total-order difference
   never matters here. *)
let less a b =
  let c = Float.compare a.time b.time in
  c < 0 || (c = 0 && a.seq < b.seq)

let swap q i j =
  let tmp = q.data.(i) in
  q.data.(i) <- q.data.(j);
  q.data.(j) <- tmp

(* lint: hot *)
let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less q.data.(i) q.data.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

(* lint: hot *)
let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < q.len && less q.data.(l) q.data.(i) then l else i in
  let smallest =
    if r < q.len && less q.data.(r) q.data.(smallest) then r else smallest
  in
  if smallest <> i then begin
    swap q i smallest;
    sift_down q smallest
  end

(* lint: hot *)
let push q time payload =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  (* lint: allow R10 — the entry record is the queued element itself *)
  let entry = { time; seq = q.next_seq; payload } in
  q.next_seq <- q.next_seq + 1;
  if q.len = Array.length q.data then begin
    let capacity = max 8 (2 * q.len) in
    let bigger = Array.make capacity entry in
    Array.blit q.data 0 bigger 0 q.len;
    q.data <- bigger
  end;
  q.data.(q.len) <- entry;
  q.len <- q.len + 1;
  sift_up q (q.len - 1)

(* lint: hot *)
let pop q =
  if q.len = 0 then None
  else begin
    let top = q.data.(0) in
    q.len <- q.len - 1;
    if q.len > 0 then begin
      q.data.(0) <- q.data.(q.len);
      sift_down q 0
    end;
    (* lint: allow R10 — the boxed result is this function's contract; the engine loop pops unboxed below *)
    Some (top.time, top.payload)
  end

(* Unboxed pop for the engine loop: no [Some (time, payload)] tuple per
   ring.  NaN is a safe empty sentinel because [push] rejects NaN times. *)
(* lint: hot *)
let pop_into q slot =
  if q.len = 0 then Float.nan
  else begin
    let top = q.data.(0) in
    q.len <- q.len - 1;
    if q.len > 0 then begin
      q.data.(0) <- q.data.(q.len);
      sift_down q 0
    end;
    slot := top.payload;
    top.time
  end

let peek_time q = if q.len = 0 then None else Some q.data.(0).time

(* Dropping the array matters, not just the length: popped slots above
   [len] keep their entries reachable, so a lazy [clear] would pin every
   payload of a large finished run until the queue itself dies.  Resetting
   [next_seq] makes a cleared queue tie-break like a fresh one. *)
let clear q =
  q.data <- [||];
  q.len <- 0;
  q.next_seq <- 0
