(* Calendar queue (Brown 1988): events hash into fixed-width time buckets
   laid out over a rotating "year" of [nbuckets] "days"; pop walks the
   year forward from the current day, so with a width matched to the event
   density both push and pop are amortized O(1).

   Determinism contract (shared with Event_queue): events drain in
   ascending (time, seq) where [seq] is the insertion counter, so a DES
   run is a function of the inserted events only — never of the bucket
   geometry.  Buckets sort lazily: pushes append and mark the bucket
   dirty, and the sort happens at most once per pop that inspects it.

   Geometry invariant: [vb] (the current virtual day, a float so a long
   run never wraps an int) never exceeds the virtual day of any pending
   event.  Pop advances [vb] only across days verified empty, push into
   the past rewinds it, and resize re-anchors it at the earliest event. *)

type 'a entry = { time : float; seq : int; payload : 'a }

type 'a bucket = {
  mutable items : 'a entry array;  (* valid prefix [0, blen) *)
  mutable blen : int;
  mutable dirty : bool;  (* true when the prefix may be unsorted *)
}

type 'a t = {
  mutable buckets : 'a bucket array;
  mutable nbuckets : int;
  mutable width : float;  (* day length in time units *)
  mutable vb : float;  (* current virtual day: floor(t / width) cursor *)
  mutable len : int;
  mutable next_seq : int;
  mutable resizes : int;
}

let min_buckets = 16

let make_buckets n =
  Array.init n (fun _ -> { items = [||]; blen = 0; dirty = false })

let create () =
  {
    buckets = make_buckets min_buckets;
    nbuckets = min_buckets;
    width = 1.0;
    vb = 0.0;
    len = 0;
    next_seq = 0;
    resizes = 0;
  }

let is_empty q = q.len = 0
let size q = q.len

(* Virtual day of time [t], clamped so that day arithmetic (rem, +1.0,
   int conversion) stays on exactly-representable integral floats even
   for absurd inputs.  Clamping is sound: it is applied identically on
   push and pop, so equal clamped days still route to one bucket, and
   the direct-search fallback never consults the day at all. *)
let day_clamp = 0x1p62

let virt q t =
  let v = Float.floor (t /. q.width) in
  if v > day_clamp then day_clamp
  else if v < -.day_clamp then -.day_clamp
  else v

(* physical bucket of a virtual day; Float.rem of integral doubles is
   exact, so this is a true mod over the whole clamped range *)
let bucket_index q v =
  let n = float_of_int q.nbuckets in
  let m = Float.rem v n in
  let m = if m < 0.0 then m +. n else m in
  int_of_float m

(* pop order: [a] drains before [b] *)
let less a b =
  let c = Float.compare a.time b.time in
  c < 0 || (c = 0 && a.seq < b.seq)

(* Descending insertion sort, so the bucket minimum sits at the end and
   pop removes it without shifting.  Insertion sort because buckets are
   near-sorted after the first pop touches them (later pushes only
   append), making the common re-sort linear. *)
(* lint: hot *)
let sort_bucket b =
  let a = b.items in
  let j = ref 0 in
  for i = 1 to b.blen - 1 do
    let e = a.(i) in
    j := i - 1;
    while !j >= 0 && less a.(!j) e do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- e
  done;
  b.dirty <- false

(* lint: hot *)
let bucket_add q e v =
  let b = q.buckets.(bucket_index q v) in
  let cap = Array.length b.items in
  if b.blen = cap then begin
    let bigger = Array.make (max 4 (2 * cap)) e in
    Array.blit b.items 0 bigger 0 b.blen;
    b.items <- bigger
  end;
  b.items.(b.blen) <- e;
  b.blen <- b.blen + 1;
  b.dirty <- true

(* Global minimum by scanning every bucket: the O(nbuckets + len)
   fallback when a whole year holds no event (width far off the event
   spacing, e.g. right before a resize re-tunes it). *)
let direct_min q =
  let best = ref (-1) in
  let best_t = ref 0.0 in
  let best_s = ref 0 in
  for idx = 0 to q.nbuckets - 1 do
    let b = q.buckets.(idx) in
    if b.blen > 0 then begin
      if b.dirty then sort_bucket b;
      let e = b.items.(b.blen - 1) in
      let c = Float.compare e.time !best_t in
      if !best < 0 || c < 0 || (c = 0 && e.seq < !best_s) then begin
        best := idx;
        best_t := e.time;
        best_s := e.seq
      end
    end
  done;
  !best

(* Find the bucket holding the earliest event, advancing [q.vb] across
   verified-empty days.  A bucket's sorted minimum has the minimal
   virtual day in that bucket, and days map to buckets injectively, so
   the first bucket whose minimum lives on the current day holds the
   global minimum.  Requires [q.len > 0]. *)
(* lint: hot *)
let locate q =
  let nb = q.nbuckets in
  let found = ref (-1) in
  let steps = ref 0 in
  while !found < 0 && !steps < nb do
    let idx = bucket_index q q.vb in
    let b = q.buckets.(idx) in
    if b.blen > 0 then begin
      if b.dirty then sort_bucket b;
      if Float.compare (virt q b.items.(b.blen - 1).time) q.vb <= 0 then
        found := idx
      else begin
        q.vb <- q.vb +. 1.0;
        incr steps
      end
    end
    else begin
      q.vb <- q.vb +. 1.0;
      incr steps
    end
  done;
  if !found >= 0 then !found
  else begin
    let idx = direct_min q in
    q.vb <- virt q q.buckets.(idx).items.(q.buckets.(idx).blen - 1).time;
    idx
  end

(* Rebuild with [new_n] buckets and a width re-tuned to the current
   event population: twice the mean inter-event gap, so a year spans the
   whole population and a day holds ~2 events.  The floor keeps
   [t / width] within float-exact integer range (see [virt]). *)
let resize q new_n =
  q.resizes <- q.resizes + 1;
  if q.len = 0 then begin
    q.buckets <- make_buckets new_n;
    q.nbuckets <- new_n;
    q.width <- 1.0;
    q.vb <- 0.0
  end
  else begin
    let seed = ref None in
    Array.iter
      (fun b -> if Option.is_none !seed && b.blen > 0 then seed := Some b.items.(0))
      q.buckets;
    let seed = match !seed with Some e -> e | None -> assert false in
    let all = Array.make q.len seed in
    let k = ref 0 in
    Array.iter
      (fun b ->
        for i = 0 to b.blen - 1 do
          all.(!k) <- b.items.(i);
          incr k
        done)
      q.buckets;
    let min_t = ref all.(0).time in
    let max_t = ref all.(0).time in
    for i = 1 to q.len - 1 do
      let t = all.(i).time in
      if Float.compare t !min_t < 0 then min_t := t;
      if Float.compare t !max_t > 0 then max_t := t
    done;
    let span = !max_t -. !min_t in
    let w =
      if span > 0.0 then 2.0 *. span /. float_of_int q.len else 1.0
    in
    let eps = (Float.abs !max_t +. 1.0) *. 0x1p-40 in
    let w = Float.max w eps in
    let w = if Float.is_finite w then w else Float.max_float in
    q.buckets <- make_buckets new_n;
    q.nbuckets <- new_n;
    q.width <- w;
    q.vb <- virt q !min_t;
    Array.iter (fun e -> bucket_add q e (virt q e.time)) all
  end

(* lint: hot *)
let push q time payload =
  if Float.is_nan time then invalid_arg "Calendar_queue.push: NaN time";
  (* lint: allow R10 — the entry record is the queued element itself *)
  let e = { time; seq = q.next_seq; payload } in
  q.next_seq <- q.next_seq + 1;
  let v = virt q time in
  if q.len = 0 then q.vb <- v
  else if Float.compare v q.vb < 0 then q.vb <- v;
  bucket_add q e v;
  q.len <- q.len + 1;
  if q.len > 2 * q.nbuckets then resize q (2 * q.nbuckets)

(* Remove and return the earliest entry; requires [q.len > 0].  The
   popped slot keeps its entry reachable until overwritten (same policy
   as Event_queue) — [clear] drops the storage wholesale. *)
(* lint: hot *)
let take q =
  let idx = locate q in
  let b = q.buckets.(idx) in
  let e = b.items.(b.blen - 1) in
  b.blen <- b.blen - 1;
  q.len <- q.len - 1;
  if q.len < q.nbuckets / 4 && q.nbuckets > min_buckets then
    resize q (q.nbuckets / 2);
  e

let pop q =
  if q.len = 0 then None
  else begin
    let e = take q in
    Some (e.time, e.payload)
  end

(* lint: hot *)
let pop_into q slot =
  if q.len = 0 then Float.nan
  else begin
    let e = take q in
    slot := e.payload;
    e.time
  end

let peek_time q =
  if q.len = 0 then None
  else begin
    let b = q.buckets.(locate q) in
    Some b.items.(b.blen - 1).time
  end

let clear q =
  q.buckets <- make_buckets min_buckets;
  q.nbuckets <- min_buckets;
  q.width <- 1.0;
  q.vb <- 0.0;
  q.len <- 0;
  q.next_seq <- 0

(* declared last: the field names shadow the main record's otherwise *)
type stats = { resizes : int; buckets : int; width : float }

let stats (q : _ t) = { resizes = q.resizes; buckets = q.nbuckets; width = q.width }
