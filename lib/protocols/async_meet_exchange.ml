type result = {
  broadcast_time : float option;
  rings : int;
  informed : int;
  agents : int;
  curve : int array;
}

let to_run_result r =
  let broadcast_time =
    Option.map (fun t -> int_of_float (Float.ceil t)) r.broadcast_time
  in
  Run_result.make ~all_agents_informed:broadcast_time ~broadcast_time
    ~rounds_run:(Array.length r.curve - 1)
    ~informed_curve:r.curve ~contacts:r.informed ()
