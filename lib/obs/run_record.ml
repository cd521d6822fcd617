type gc_counters = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

type t = {
  seed : int;
  rep : int;
  graph : string;
  protocol : string;
  vertices : int;
  broadcast_time : int option;
  rounds_run : int;
  capped : bool;
  contacts : int;
  informed_curve : int array;
  wall_seconds : float;
  gc : gc_counters;
}

type sink = t -> unit

let gc_now () =
  let minor, promoted, major = Gc.counters () in
  { minor_words = minor; major_words = major; promoted_words = promoted }

let timed f =
  let g0 = gc_now () in
  let t0 = Clock.now_s () in
  let result = f () in
  let wall = Clock.elapsed_s ~since:t0 in
  let g1 = gc_now () in
  ( result,
    wall,
    {
      minor_words = g1.minor_words -. g0.minor_words;
      major_words = g1.major_words -. g0.major_words;
      promoted_words = g1.promoted_words -. g0.promoted_words;
    } )

(* JSON emission stays hand-rolled (the schema is flat and small); string
   and float rendering is shared with the parser side in {!Json}. *)

let buf_add_json_string = Json.buf_add_string_literal
let buf_add_float = Json.buf_add_float
let buf_add_int = Json.buf_add_int

let to_json t =
  let buf = Buffer.create (256 + (8 * Array.length t.informed_curve)) in
  Buffer.add_string buf "{\"seed\":";
  buf_add_int buf t.seed;
  Buffer.add_string buf ",\"rep\":";
  buf_add_int buf t.rep;
  Buffer.add_string buf ",\"graph\":";
  buf_add_json_string buf t.graph;
  Buffer.add_string buf ",\"protocol\":";
  buf_add_json_string buf t.protocol;
  Buffer.add_string buf ",\"vertices\":";
  buf_add_int buf t.vertices;
  Buffer.add_string buf ",\"broadcast_time\":";
  (match t.broadcast_time with
  | Some r -> buf_add_int buf r
  | None -> Buffer.add_string buf "null");
  Buffer.add_string buf ",\"rounds_run\":";
  buf_add_int buf t.rounds_run;
  Buffer.add_string buf ",\"capped\":";
  Buffer.add_string buf (if t.capped then "true" else "false");
  Buffer.add_string buf ",\"contacts\":";
  buf_add_int buf t.contacts;
  Buffer.add_string buf ",\"informed_curve\":[";
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      buf_add_int buf x)
    t.informed_curve;
  Buffer.add_string buf "],\"wall_seconds\":";
  buf_add_float buf t.wall_seconds;
  Buffer.add_string buf ",\"gc\":{\"minor_words\":";
  buf_add_float buf t.gc.minor_words;
  Buffer.add_string buf ",\"major_words\":";
  buf_add_float buf t.gc.major_words;
  Buffer.add_string buf ",\"promoted_words\":";
  buf_add_float buf t.gc.promoted_words;
  Buffer.add_string buf "}}";
  Buffer.contents buf

let with_jsonl_file ?(append = false) path f =
  let oc =
    if append then
      open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
    else open_out path
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      f (fun t ->
          output_string oc (to_json t);
          output_char oc '\n'))

(* --- reading back ----------------------------------------------------- *)

let of_json line =
  match Json.parse_result line with
  | Result.Error msg -> Error msg
  | Ok j ->
      let ( let* ) r f = Result.bind r f in
      let field ?(where = j) name conv =
        match Json.member name where with
        | None -> Error (Printf.sprintf "missing field %S" name)
        | Some v -> (
            match conv v with
            | Some x -> Ok x
            | None -> Error (Printf.sprintf "field %S has the wrong type" name))
      in
      let* seed = field "seed" Json.to_int in
      let* rep = field "rep" Json.to_int in
      let* graph = field "graph" Json.to_string in
      let* protocol = field "protocol" Json.to_string in
      let* vertices = field "vertices" Json.to_int in
      let* broadcast_time =
        field "broadcast_time" (function
          | Json.Null -> Some None
          | Json.Int k -> Some (Some k)
          | _ -> None)
      in
      let* rounds_run = field "rounds_run" Json.to_int in
      let* capped = field "capped" Json.to_bool in
      let* contacts = field "contacts" Json.to_int in
      let* curve_items = field "informed_curve" Json.to_list in
      let* informed_curve =
        let rec ints acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | item :: rest -> (
              match Json.to_int item with
              | Some k -> ints (k :: acc) rest
              | None -> Error "field \"informed_curve\" has a non-integer entry")
        in
        ints [] curve_items
      in
      let* wall_seconds = field "wall_seconds" Json.to_float in
      let* gc_obj =
        field "gc" (function Json.Obj _ as o -> Some o | _ -> None)
      in
      let* minor_words = field ~where:gc_obj "minor_words" Json.to_float in
      let* major_words = field ~where:gc_obj "major_words" Json.to_float in
      let* promoted_words = field ~where:gc_obj "promoted_words" Json.to_float in
      (* schema evolution: the retired engine flag and shard count of
         older records are ignored like any unknown field *)
      Ok
        {
          seed;
          rep;
          graph;
          protocol;
          vertices;
          broadcast_time;
          rounds_run;
          capped;
          contacts;
          informed_curve;
          wall_seconds;
          gc = { minor_words; major_words; promoted_words };
        }

exception Jsonl_error of { path : string; line : int; msg : string }

let () =
  Printexc.register_printer (function
    | Jsonl_error { path; line; msg } ->
        Some (Printf.sprintf "%s:%d: %s" path line msg)
    | _ -> None)

let read_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line ->
            if String.trim line = "" then go (lineno + 1) acc
            else begin
              match of_json line with
              | Ok r -> go (lineno + 1) (r :: acc)
              | Error msg -> raise (Jsonl_error { path; line = lineno; msg })
            end
      in
      go 1 [])
