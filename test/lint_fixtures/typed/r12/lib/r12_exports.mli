(* R12 fixture: one export per verdict. *)

val used : int -> int
(* called from R12_user: not flagged *)

val unused : int -> int
(* called by nothing: flagged *)

val tested : int -> int
(* called only from ../test: flagged *)

val main_only : int -> int
(* called only from R12_user's [let () =] body: not flagged *)

val functor_only : int -> int
(* called only inside R12_user's functor body: not flagged *)

(* lint: allow R12 — kept on purpose *)
val kept : int -> int
