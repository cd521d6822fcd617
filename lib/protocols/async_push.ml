type variant = Async_push | Async_push_pull

type result = {
  broadcast_time : float option;
  rings : int;
  informed : int;
  curve : int array;
}

let to_run_result r =
  Run_result.make
    ~broadcast_time:(Option.map (fun t -> int_of_float (Float.ceil t)) r.broadcast_time)
    ~rounds_run:(Array.length r.curve - 1)
    ~informed_curve:r.curve ~contacts:r.rings ()
