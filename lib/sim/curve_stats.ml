module Run_result = Rumor_protocols.Run_result

(* lint: hot *)
let time_to_fraction_curve ?(completed = true) curve q =
  if not (q > 0.0 && q <= 1.0) then
    invalid_arg "Curve_stats.time_to_fraction_curve: fraction outside (0, 1]";
  let len = Array.length curve in
  if len = 0 then None
  else begin
    let target = q *. float_of_int curve.(len - 1) in
    (* a capped run's final count is its own maximum, so only report the
       milestone if the run completed or q refers to what was reached *)
    if completed || target > 0.0 then begin
      let t = ref 0 in
      while !t < len && float_of_int curve.(!t) < target do
        incr t
      done;
      if !t < len then Some !t else None
    end
    else None
  end

let half_time (r : Run_result.t) =
  time_to_fraction_curve
    ~completed:(r.Run_result.broadcast_time <> None)
    r.Run_result.informed_curve 0.5
