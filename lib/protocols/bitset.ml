(* Dense bit-per-element membership over [0, n), backed by Bytes.  The
   engine keeps informed-state in these instead of int arrays: 1 bit per
   vertex instead of 1 word makes the n = 10^7 working set cache-resident
   (1.25 MB instead of 80 MB) and snapshot copies a memcpy.

   Accessors use the unsafe Bytes primitives: every caller in the engine
   indexes with a vertex or agent id already validated against n, and the
   byte index i lsr 3 is in range whenever i is. *)

type t = Bytes.t

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative size";
  Bytes.make ((n + 7) lsr 3) '\000'

(* lint: hot *)
let[@inline] mem t i =
  Char.code (Bytes.unsafe_get t (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* lint: hot *)
let[@inline] add t i =
  let byte = i lsr 3 in
  Bytes.unsafe_set t byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t byte) lor (1 lsl (i land 7))))

let snapshot ~src ~dst = Bytes.blit src 0 dst 0 (Bytes.length src)

let clear t = Bytes.fill t 0 (Bytes.length t) '\000'
