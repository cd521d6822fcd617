(* Per-module facts extracted from one .cmt file.

   A summary is plain marshalable data: no Ident.t, no Path.t, no
   Location.t — just strings and ints — so it can be cached on disk
   keyed by the cmt digest (see Cmt_loader) and compared across
   compiler versions only via the cache version stamp.

   Field-name prefixes (dname/aline/wline/pline) keep the records
   unambiguous to read at use sites; all positions are 1-based lines
   and 0-based columns, matching Finding. *)

(* Effects propagated by the fixpoint in Effects. *)
type fact =
  | Rng  (** uses the global [Random] state *)
  | Clock  (** reads the wall clock *)
  | Conc  (** touches a concurrency primitive *)
  | Io  (** prints to stdout *)
  | Mut  (** writes mutable state it does not own (ref/field/array) *)
  | Alloc  (** allocates inside a loop *)

let fact_equal a b =
  match (a, b) with
  | Rng, Rng | Clock, Clock | Conc, Conc | Io, Io | Mut, Mut | Alloc, Alloc ->
      true
  | (Rng | Clock | Conc | Io | Mut | Alloc), _ -> false

let fact_name = function
  | Rng -> "global-rng"
  | Clock -> "wall-clock"
  | Conc -> "concurrency"
  | Io -> "stdout"
  | Mut -> "shared-mutation"
  | Alloc -> "loop-allocation"

(* A call (or any use of a function-valued identifier: passing [f] to a
   higher-order function also creates an edge, which keeps the effect
   propagation conservative). *)
type target =
  | Local of string  (** resolved to a definition in the same module *)
  | Global of string list  (** written path components, e.g. ["Rng";"int"] *)

type call = { target : target; cline : int }

type alloc_kind =
  | Closure
  | Tuple
  | Record
  | Variant of string  (** non-constant constructor, e.g. "Some" or "::" *)
  | Array_lit
  | Ref_cell
  | Partial_app

type alloc = {
  kind : alloc_kind;
  aline : int;
  acol : int;
  in_loop : bool;  (** inside one of the def's own loops *)
}

(* A mutation of state the function does not own: the written root is
   neither a local binding nor a parameter. *)
type write = { wdesc : string; wline : int; wcol : int }

(* One application of a (potential) parallel-run entry point that takes a
   literal closure argument; the closure body has been pre-analyzed for
   race-unsafe writes and for the calls it makes. *)
type par_call = {
  fn : target;
  pline : int;
  pcol : int;
  unsafe_writes : write list;
  closure_calls : call list;
}

type def = {
  dname : string;  (** nested modules prefixed: "Builder.add_edge" *)
  dline : int;
  dcol : int;
  calls : call list;  (** deduplicated by target, first occurrence *)
  allocs : alloc list;
      (** allocation sites in this def's body, outside the arguments of a
          raising function ([raise], [invalid_arg], [failwith]) *)
  has_loop : bool;  (** the body holds a [for] or [while] loop *)
  par_calls : par_call list;
  mutates : write option;  (** first shared-state write, if any *)
}

type t = {
  modname : string;  (** compilation unit name, e.g. "Rumor_prob__Rng" *)
  source : string;  (** cmt_sourcefile, "" when absent *)
  digest : string;  (** hex digest of the source, "" when absent *)
  aliases : (string * string list) list;
      (** [module X = P] bindings, including dune wrapper modules *)
  functor_args : string list list;
      (** modules applied as [F (P)] at top level: all their values count
          as used *)
  defs : def list;
}

let target_key = function
  | Local s -> "." ^ s
  | Global parts -> String.concat "." parts
