(** The rule interface: what a lint rule sees and what it produces. *)

type scope = Lib | Bin | Test | Other

val scope_of_string : string -> scope option
val scope_to_string : scope -> string

type ctx = {
  path : string;  (** path as reported in findings *)
  scope : scope;
  mli_exists : bool;  (** a sibling [.mli] exists next to this [.ml] *)
}

type t = {
  id : string;  (** "R1" *)
  name : string;  (** "poly-compare" *)
  doc : string;  (** one-line description for [--list-rules] *)
  applies : ctx -> bool;  (** scope filter; checked before [check] runs *)
  check : ctx -> Parsetree.structure -> Finding.t list;
}

val everywhere : ctx -> bool
val lib_only : ctx -> bool
