type counter = { c_name : string; mutable count : int }

type histogram = {
  h_name : string;
  h_bounds : float array;  (* strictly increasing upper bounds *)
  h_counts : int array;  (* length = bounds + 1, overflow last *)
}

(* Registration order is kept (assoc lists, first-registered first) but
   export sorts by name, so neither order is observable downstream. *)
type t = {
  mutable counters : (string * counter) list;
  mutable histograms : (string * histogram) list;
}

let create () = { counters = []; histograms = [] }

let counter t name =
  match List.assoc_opt name t.counters with
  | Some c -> c
  | None ->
      let c = { c_name = name; count = 0 } in
      t.counters <- t.counters @ [ (name, c) ];
      c

let incr c = c.count <- c.count + 1

let add c n =
  if n < 0 then
    invalid_arg (Printf.sprintf "Counters.add: negative bump on %S" c.c_name);
  c.count <- c.count + n

let value c = c.count

let check_bounds name bounds =
  if Array.length bounds = 0 then
    invalid_arg (Printf.sprintf "Counters.histogram %S: empty bounds" name);
  for i = 1 to Array.length bounds - 1 do
    if not (bounds.(i) > bounds.(i - 1)) then
      invalid_arg
        (Printf.sprintf "Counters.histogram %S: bounds not strictly increasing"
           name)
  done

let histogram t name ~buckets =
  match List.assoc_opt name t.histograms with
  | Some h ->
      if
        Array.length h.h_bounds <> Array.length buckets
        || not (Array.for_all2 Float.equal h.h_bounds buckets)
      then
        invalid_arg
          (Printf.sprintf "Counters.histogram %S: re-registered with different bounds"
             h.h_name);
      h
  | None ->
      check_bounds name buckets;
      let h =
        {
          h_name = name;
          h_bounds = Array.copy buckets;
          h_counts = Array.make (Array.length buckets + 1) 0;
        }
      in
      t.histograms <- t.histograms @ [ (name, h) ];
      h

(* linear scan: bucket arrays are a handful of cells, and the scan beats
   binary search at that size *)
let observe h x =
  let n = Array.length h.h_bounds in
  let i = ref 0 in
  while !i < n && not (x <= h.h_bounds.(!i)) do
    i := !i + 1
  done;
  h.h_counts.(!i) <- h.h_counts.(!i) + 1

let bucket_counts h = Array.copy h.h_counts

let merge_into ~dst ~src =
  List.iter
    (fun (name, c) ->
      let d = counter dst name in
      d.count <- d.count + c.count)
    src.counters;
  List.iter
    (fun (name, h) ->
      let d = histogram dst name ~buckets:h.h_bounds in
      Array.iteri (fun i n -> d.h_counts.(i) <- d.h_counts.(i) + n) h.h_counts)
    src.histograms

let is_empty t = List.is_empty t.counters && List.is_empty t.histograms

let sorted_names l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let to_json t =
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map
             (fun (name, c) -> (name, Json.Int c.count))
             (sorted_names t.counters)) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (name, h) ->
               ( name,
                 Json.Obj
                   [
                     ( "bounds",
                       Json.List
                         (Array.to_list
                            (Array.map (fun b -> Json.Float b) h.h_bounds)) );
                     ( "counts",
                       Json.List
                         (Array.to_list
                            (Array.map (fun c -> Json.Int c) h.h_counts)) );
                   ] ))
             (sorted_names t.histograms)) );
    ]

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let t = create () in
  let* counter_fields =
    match Json.member "counters" j with
    | Some (Json.Obj fields) -> Ok fields
    | Some _ -> Error "\"counters\" is not an object"
    | None -> Ok []
  in
  let* () =
    List.fold_left
      (fun acc (name, v) ->
        let* () = acc in
        match Json.to_int v with
        | Some n ->
            (counter t name).count <- n;
            Ok ()
        | None -> Error (Printf.sprintf "counter %S is not an integer" name))
      (Ok ()) counter_fields
  in
  let* hist_fields =
    match Json.member "histograms" j with
    | Some (Json.Obj fields) -> Ok fields
    | Some _ -> Error "\"histograms\" is not an object"
    | None -> Ok []
  in
  List.fold_left
    (fun acc (name, v) ->
      let* () = acc in
      let floats l =
        List.fold_left
          (fun acc item ->
            match (acc, Json.to_float item) with
            | Ok xs, Some x -> Ok (x :: xs)
            | Ok _, None -> Error ()
            | (Error _ as e), _ -> e)
          (Ok []) l
        |> Result.map (fun xs -> Array.of_list (List.rev xs))
      in
      let ints l =
        List.fold_left
          (fun acc item ->
            match (acc, Json.to_int item) with
            | Ok xs, Some x -> Ok (x :: xs)
            | Ok _, None -> Error ()
            | (Error _ as e), _ -> e)
          (Ok []) l
        |> Result.map (fun xs -> Array.of_list (List.rev xs))
      in
      match
        ( Option.bind (Json.member "bounds" v) Json.to_list,
          Option.bind (Json.member "counts" v) Json.to_list )
      with
      | Some bs, Some cs -> (
          match (floats bs, ints cs) with
          | Ok bounds, Ok counts
            when Array.length counts = Array.length bounds + 1 -> (
              match histogram t name ~buckets:bounds with
              | h ->
                  Array.blit counts 0 h.h_counts 0 (Array.length counts);
                  Ok ()
              | exception Invalid_argument msg -> Error msg)
          | _ -> Error (Printf.sprintf "histogram %S is malformed" name))
      | _ -> Error (Printf.sprintf "histogram %S is missing bounds/counts" name))
    (Ok ()) hist_fields
  |> Result.map (fun () -> t)
