(* Golden digests for the round and async kernels: every cell of
   Kernel_matrix — result record, full Instrument event stream, traffic
   loads and informing rounds — must reproduce the digest recorded in
   Golden_kernels bit for bit, so they pin the exact random-draw order of
   every kernel (see Golden_kernels for which cells were recorded from
   which implementation). *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module P = Rumor_protocols
module Engine = Rumor_protocols.Engine
module Async_engine = Rumor_protocols.Async_engine
module Instrument = Rumor_obs.Instrument

(* the traffic accumulator rides on the instrument, next to the recorder *)
let calls obs traffic = Instrument.pair obs (P.Traffic.calls traffic)
let steps obs traffic = Instrument.pair obs (P.Traffic.steps traffic)

let kernels =
  {
    Kernel_matrix.push =
      (fun ~obs ~traffic ~seed g ~source ~max_rounds ->
        let tau = Array.make (Graph.n g) 0 in
        let r =
          Engine.push ~obs:(calls obs traffic) ~tau (Rng.of_int seed) g ~source
            ~max_rounds ()
        in
        (r, tau));
    push_pull =
      (fun ~obs ~traffic ~seed g ~source ~max_rounds ->
        Engine.push_pull ~obs:(calls obs traffic) (Rng.of_int seed) g ~source
          ~max_rounds ());
    visit_exchange =
      (fun ~obs ~traffic ~lazy_walk ~walkers ~seed g ~source ~agents ~max_rounds ->
        let tau = Array.make (Graph.n g) 0 in
        let r =
          Engine.visit_exchange ~obs:(steps obs traffic) ~tau ~lazy_walk ~walkers
            (Rng.of_int seed) g ~source ~agents ~max_rounds ()
        in
        (r, tau));
    meet_exchange =
      (fun ~obs ~traffic ~lazy_walk ~walkers ~seed g ~source ~agents ~max_rounds ->
        Engine.meet_exchange ~obs:(steps obs traffic) ?lazy_walk ~walkers
          (Rng.of_int seed) g ~source ~agents ~max_rounds ());
    combined =
      (fun ~obs ~lazy_walk ~seed g ~source ~agents ~max_rounds ->
        Engine.combined ~obs ~lazy_walk (Rng.of_int seed) g ~source ~agents
          ~max_rounds ());
    async_push =
      (fun ~obs ~seed g ~variant ~source ~max_time ->
        Async_engine.push ~obs (Rng.of_int seed) g ~variant ~source ~max_time);
    async_meet_exchange =
      (fun ~obs ~lazy_walk ~walkers ~seed g ~source ~agents ~max_time ->
        Async_engine.meet_exchange ~obs ?lazy_walk ~walkers (Rng.of_int seed) g
          ~source ~agents ~max_time);
  }

let golden = Hashtbl.of_seq (List.to_seq Golden_kernels.digests)

(* the kernel a cell exercises: the first word of its label *)
let kernel_of label = List.hd (String.split_on_char ' ' label)

let test_cell_set () =
  Alcotest.(check (list string))
    "cells = golden labels"
    (List.map fst Golden_kernels.digests)
    (List.map fst (Kernel_matrix.cells kernels))

(* ?walkers no longer selects an async meet-exchange kernel, so the
   recorded digest of every walkers=sparse cell is its dense twin's *)
let sparse_suffix = " walkers=sparse"

let test_sparse_twins () =
  let twins =
    List.filter
      (fun (label, _) -> String.ends_with ~suffix:sparse_suffix label)
      Golden_kernels.digests
  in
  Alcotest.(check int) "sparse cells" 36 (List.length twins);
  List.iter
    (fun (label, digest) ->
      let dense =
        String.sub label 0 (String.length label - String.length sparse_suffix)
      in
      Alcotest.(check string) (label ^ " = dense twin") (Hashtbl.find golden dense) digest)
    twins

let test_kernel name () =
  List.iter
    (fun (label, digest) ->
      if kernel_of label = name then
        Alcotest.(check string) label (Hashtbl.find golden label) (digest ()))
    (Kernel_matrix.cells kernels)

let suite =
  Alcotest.test_case "matrix covers every golden cell" `Quick test_cell_set
  :: List.map
       (fun name ->
         Alcotest.test_case (name ^ " = golden digests") `Quick (test_kernel name))
       [
         "push";
         "push-pull";
         "visit-exchange";
         "meet-exchange";
         "combined";
         "async-push";
         "async-push-pull";
         "async-meet-exchange";
       ]
  @ [
      Alcotest.test_case "async-meet-exchange walkers=sparse = dense twin" `Quick
        test_sparse_twins;
    ]
