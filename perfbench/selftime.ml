(* Per-layer self time of a trace the benchmark wrote and read back.

   A span's self time is its duration minus the durations of its direct
   children; its layer is the prefix of its name up to the first dot.  The
   benchmark's own "job.*" spans hold only its loops and output checks, so
   their self time is the unattributed remainder.  Top-level spans tile
   the traced wall time, hence the layers' self times plus the remainder
   add up to it exactly. *)

module Trace = Rumor_obs.Trace

let layers =
  [
    "graph";
    "agents";
    "prob";
    "engine";
    "sparse_walkers";
    "async_engine";
    "des";
    "sim";
    "obs";
    "floor";
  ]

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

type split = {
  self_us : (string * float) list;  (** per layer, in [layers] order *)
  unattributed_us : float;
  wall_us : float;  (** sum of top-level span durations *)
}

let split (events : Trace.event list) =
  let spans = List.filter (fun (e : Trace.event) -> e.Trace.ph = `Span) events in
  (* events come back in the order their spans began, which is a preorder
     of the span tree: a span's parent is the innermost earlier span still
     open at its start.  The clock ticks in microseconds, so a span that
     starts within half a tick of another's end follows it. *)
  let self = Hashtbl.create 16 in
  let get layer = Option.value ~default:0.0 (Hashtbl.find_opt self layer) in
  let add layer us = Hashtbl.replace self layer (us +. get layer) in
  let wall = ref 0.0 in
  let stack = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      let rec close () =
        match !stack with
        | (top : Trace.event) :: rest
          when e.Trace.ts_us >= top.Trace.ts_us +. top.Trace.dur_us -. 0.5 ->
            stack := rest;
            close ()
        | _ -> ()
      in
      close ();
      let layer = layer_of e.Trace.name in
      add layer e.Trace.dur_us;
      (match !stack with
      | parent :: _ -> add (layer_of parent.Trace.name) (-.e.Trace.dur_us)
      | [] -> wall := !wall +. e.Trace.dur_us);
      stack := e :: !stack)
    spans;
  let known = List.map (fun l -> (l, get l)) layers in
  let attributed = List.fold_left (fun acc (_, us) -> acc +. us) 0.0 known in
  { self_us = known; unattributed_us = !wall -. attributed; wall_us = !wall }
