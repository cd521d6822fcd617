(* Growable per-round curve buffer.  Every sync protocol used to pre-allocate
   [Array.make (max_rounds + 1) 0], which makes memory O(round cap) instead of
   O(rounds actually run) and rules out "uncapped" runs with a huge cap (the
   cap + 1 length even overflows at [max_int]).  This buffer starts small and
   doubles, so a run costs memory proportional to the rounds it really took. *)

type t = { mutable data : int array; mutable len : int }

let initial_capacity = 64

let create ~hint =
  if hint < 0 then invalid_arg "Curve_buf.create: negative hint";
  (* a cap of [hint] rounds needs at most [hint + 1] points; computing the
     bound this way keeps [hint = max_int] from overflowing *)
  let capacity = if hint >= initial_capacity then initial_capacity else hint + 1 in
  { data = Array.make capacity 0; len = 0 }

let length b = b.len

(* lint: hot *)
let push b v =
  let capacity = Array.length b.data in
  if b.len = capacity then begin
    (* [capacity <= Sys.max_array_length / 2] always holds in practice: the
       buffer tracks rounds actually simulated, and simulating max_array/2
       rounds is unreachable long before memory is. *)
    let bigger = Array.make (2 * capacity) 0 in
    Array.blit b.data 0 bigger 0 b.len;
    b.data <- bigger
  end;
  b.data.(b.len) <- v;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len
