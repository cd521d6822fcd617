(* The second module of R12's fixture: an ordinary caller, a top-level
   body that is the only caller of [main_only], and a functor body that is
   the only caller of [functor_only]. *)

let use x = R12_exports.used x

let () = ignore (R12_exports.main_only 0)

module Wrap (X : sig val k : int end) = struct
  let v = R12_exports.functor_only X.k
end
