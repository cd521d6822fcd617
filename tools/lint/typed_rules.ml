(* Typedtree-based rules R9-R12: these see one module's Summary plus the
   whole-program Effects fixpoint, unlike the parsetree rules in Rules
   which see one file's AST in isolation.

   Findings are reported against the *input source file* (tctx.rctx.path)
   so the ordinary per-line suppression comments in that file apply,
   exactly as for R1-R8. R9-R11 read an implementation; R12 reads an
   interface, matched to the summary of its .ml. *)

type tctx = {
  rctx : Rule.ctx;
  summary : Summary.t;
  env : Effects.t;
  hot_lines : int list;  (** lines bearing a [(* lint: hot *)] marker *)
  exports : (string * int * int) list;
      (** an interface's values as (name, line, col), [] for a .ml *)
}

type t = {
  id : string;
  name : string;
  doc : string;
  applies : Rule.ctx -> bool;
  check : tctx -> Finding.t list;
}

let key_of tc (d : Summary.def) = tc.summary.modname ^ "." ^ d.dname

let impl_only (ctx : Rule.ctx) = Filename.check_suffix ctx.path ".ml"

(* ------------------------------------------------------------------ *)
(* R9 effect-confinement                                              *)
(* ------------------------------------------------------------------ *)

(* The interprocedural closure of R2/R3/R7/R8: a lib function whose
   transitive effect set escapes its layer's confinement. Only the
   deepest boundary-crossing caller is flagged (its callee uses the
   primitive *directly* and is already R2/R3/R7/R8's business), so one
   leak produces one finding per caller chain, not a cascade. *)

let fact_verb = function
  | Summary.Rng -> "uses the global Random state"
  | Summary.Io -> "prints to stdout"
  | Summary.Conc -> "touches a concurrency primitive"
  | Summary.Clock -> "reads the wall clock"
  | Summary.Mut | Summary.Alloc -> "escapes confinement"

let fact_advice = function
  | Summary.Rng -> "thread a split Rng.t instead (R2's closure)"
  | Summary.Io -> "return values or go through lib/obs (R3's closure)"
  | Summary.Conc -> "confine it behind lib/par (R7's closure)"
  | Summary.Clock -> "go through Rumor_obs.Clock (R8's closure)"
  | Summary.Mut | Summary.Alloc -> "confine it"

let r9 =
  {
    id = "R9";
    name = "effect-confinement";
    doc =
      "lib functions must not transitively reach global RNG / stdout / \
       concurrency / wall-clock primitives outside their sanctioned layer \
       (interprocedural closure of R2/R3/R7/R8, with the call chain printed)";
    applies = (fun ctx -> Rule.lib_only ctx && impl_only ctx);
    check =
      (fun tc ->
        let facts =
          List.concat
            [
              [ Summary.Rng; Summary.Io ];
              (if Rules.under_par tc.rctx then [] else [ Summary.Conc ]);
              (if Rules.under_obs tc.rctx then [] else [ Summary.Clock ]);
            ]
        in
        List.concat_map
          (fun (d : Summary.def) ->
            let key = key_of tc d in
            List.filter_map
              (fun fact ->
                match Effects.reach tc.env key fact with
                | Some (Effects.Via { callee; vline })
                  when Effects.origin_is_direct tc.env callee fact ->
                    let chain = Effects.chain tc.env key fact in
                    let msg =
                      Printf.sprintf
                        "%s transitively %s via %s (call on line %d): %s — %s"
                        d.dname (fact_verb fact) (Effects.display callee) vline
                        (String.concat " -> " chain)
                        (fact_advice fact)
                    in
                    Some
                      (Finding.make_at ~rule:"R9" ~name:"effect-confinement"
                         ~file:tc.rctx.path ~line:d.dline ~col:d.dcol ~chain
                         msg)
                | _ -> None)
              facts)
          tc.summary.defs);
  }

(* ------------------------------------------------------------------ *)
(* R10 hot-path allocation                                            *)
(* ------------------------------------------------------------------ *)

let alloc_what = function
  | Summary.Closure -> "builds a closure"
  | Summary.Tuple -> "allocates a tuple"
  | Summary.Record -> "allocates a record"
  | Summary.Variant "::" -> "allocates a list cell"
  | Summary.Variant c -> Printf.sprintf "allocates a %s block" c
  | Summary.Array_lit -> "allocates an array literal"
  | Summary.Ref_cell -> "allocates a ref cell"
  | Summary.Partial_app -> "makes a partial application (allocates a closure)"

let is_hot tc (d : Summary.def) =
  List.exists (fun l -> l = d.dline || l = d.dline - 1) tc.hot_lines

let r10 =
  {
    id = "R10";
    name = "hot-path-alloc";
    doc =
      "(* lint: hot *)-marked functions must not allocate per iteration: \
       closures, tuples/records, non-constant constructors, array literals, \
       ref cells and partial applications inside their loops are flagged, \
       and anywhere in the body of a loop-free one (a per-element function \
       its callers loop over); arguments of raise/invalid_arg/failwith are \
       exempt";
    applies = impl_only;
    check =
      (fun tc ->
        List.concat_map
          (fun (d : Summary.def) ->
            if not (is_hot tc d) then []
            else
              List.filter_map
                (fun (a : Summary.alloc) ->
                  let where =
                    if a.in_loop then
                      Some "inside a loop — hoist it out of the iteration"
                    else if d.has_loop then None
                    else
                      Some
                        "on every call (it has no loop, so its callers loop \
                         over it) — move it off the hot path"
                  in
                  Option.map
                    (fun where ->
                      Finding.make_at ~rule:"R10" ~name:"hot-path-alloc"
                        ~file:tc.rctx.path ~line:a.aline ~col:a.acol
                        (Printf.sprintf "hot function %s %s %s or drop the hot marker"
                           d.dname (alloc_what a.kind) where))
                    where)
                d.allocs)
          tc.summary.defs);
  }

(* ------------------------------------------------------------------ *)
(* R11 domain-race heuristic                                          *)
(* ------------------------------------------------------------------ *)

(* The canonical name of the parallel-run entry point whose closure runs
   on worker domains. *)
let par_entry_point = "Rumor_par.Pool.init_traced"

let r11 =
  {
    id = "R11";
    name = "domain-race";
    doc =
      "mutable state written from a closure passed to Pool.init_traced is \
       flagged unless the write is closure-local or indexed by a \
       value derived from the closure's parameters; calls from the closure \
       into shared-state mutators are chased transitively";
    applies =
      (fun ctx -> Rule.lib_only ctx && impl_only ctx && not (Rules.under_par ctx));
    check =
      (fun tc ->
        List.concat_map
          (fun (d : Summary.def) ->
            List.concat_map
              (fun (pc : Summary.par_call) ->
                let resolved =
                  Effects.resolve tc.env ~modname:tc.summary.modname pc.fn
                in
                let entry = Effects.display resolved in
                if not (String.equal entry par_entry_point) then []
                else
                  let write_findings =
                    List.map
                      (fun (w : Summary.write) ->
                        let msg =
                          Printf.sprintf
                            "%s writes %s from a closure passed to %s: the \
                             target is not closure-local and the index is not \
                             derived from the closure's parameters — index \
                             the write by item or keep the state behind \
                             lib/par"
                            d.dname w.wdesc entry
                        in
                        Finding.make_at ~rule:"R11" ~name:"domain-race"
                          ~file:tc.rctx.path ~line:w.wline ~col:w.wcol msg)
                      pc.unsafe_writes
                  in
                  let seen = Hashtbl.create 4 in
                  let call_findings =
                    List.filter_map
                      (fun (c : Summary.call) ->
                        let rkey =
                          Effects.resolve tc.env ~modname:tc.summary.modname
                            c.target
                        in
                        match
                          Effects.find_info tc.env
                            ~modname:tc.summary.modname rkey
                        with
                        | Some g
                          when (not (Hashtbl.mem seen g.Effects.key))
                               && not
                                    (Effects.under_par_source g.Effects.source)
                          -> (
                            Hashtbl.add seen g.Effects.key ();
                            match
                              Effects.reach tc.env g.Effects.key Summary.Mut
                            with
                            | Some o ->
                                let chain =
                                  Effects.chain tc.env g.Effects.key
                                    Summary.Mut
                                in
                                let where =
                                  match o with
                                  | Effects.Direct { oline; _ } ->
                                      Printf.sprintf " (write on line %d of %s)"
                                        oline g.Effects.source
                                  | Effects.Via _ -> ""
                                in
                                let msg =
                                  Printf.sprintf
                                    "closure passed to %s in %s calls %s, \
                                     which writes shared state%s: %s — index \
                                     it by item or move it behind lib/par"
                                    entry d.dname
                                    (Effects.display g.Effects.key)
                                    where
                                    (String.concat " -> " chain)
                                in
                                Some
                                  (Finding.make_at ~rule:"R11"
                                     ~name:"domain-race" ~file:tc.rctx.path
                                     ~line:pc.pline ~col:pc.pcol ~chain msg)
                            | None -> None)
                        | _ -> None)
                      pc.closure_calls
                  in
                  write_findings @ call_findings)
              d.par_calls)
          tc.summary.defs);
  }

(* ------------------------------------------------------------------ *)
(* R12 unused-export                                                  *)
(* ------------------------------------------------------------------ *)

(* The values an interface exports: its top-level [val]s and those of
   its literal submodule signatures, prefixed "Sub.v" like Summary defs. *)
let exports_of_signature (sg : Parsetree.signature) =
  let rec items prefix sg = List.concat_map (item prefix) sg
  and item prefix (it : Parsetree.signature_item) =
    match it.psig_desc with
    | Psig_value vd ->
        let p = vd.pval_loc.loc_start in
        [ (prefix ^ vd.pval_name.txt, p.pos_lnum, p.pos_cnum - p.pos_bol) ]
    | Psig_module
        {
          pmd_name = { txt = Some name; _ };
          pmd_type = { pmty_desc = Pmty_signature sg; _ };
          _;
        } ->
        items (prefix ^ name ^ ".") sg
    | _ -> []
  in
  items "" sg

let r12 =
  {
    id = "R12";
    name = "unused-export";
    doc =
      "a lib .mli value that no other module outside test/ and \
       lint_fixtures/ names (lib, bin, examples and perfbench callers \
       count, top-level [let () =] bodies included) is flagged at its val";
    applies = (fun ctx -> Rule.lib_only ctx && not (impl_only ctx));
    check =
      (fun tc ->
        List.filter_map
          (fun (name, line, col) ->
            if
              Effects.referenced tc.env tc.summary.modname
              || Effects.referenced tc.env (tc.summary.modname ^ "." ^ name)
            then None
            else
              Some
                (Finding.make_at ~rule:"R12" ~name:"unused-export"
                   ~file:tc.rctx.path ~line ~col
                   (Printf.sprintf
                      "%s is exported, but only its own module and the tests \
                       use it — take it out of the interface (delete it if \
                       nothing is left using it) or keep it with a reason"
                      (Effects.display (tc.summary.modname ^ "." ^ name)))))
          tc.exports);
  }

let all = [ r9; r10; r11; r12 ]
