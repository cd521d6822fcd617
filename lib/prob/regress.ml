type fit = { slope : float; intercept : float; r2 : float }

let linear_fit xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Regress.linear_fit: length mismatch";
  if n < 2 then invalid_arg "Regress.linear_fit: need at least two points";
  let fn = float_of_int n in
  let sum = Array.fold_left ( +. ) 0.0 in
  let mx = sum xs /. fn and my = sum ys /. fn in
  let sxx = ref 0.0 and sxy = ref 0.0 and syy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. dy);
    syy := !syy +. (dy *. dy)
  done;
  if Float.equal !sxx 0.0 then
    invalid_arg "Regress.linear_fit: degenerate x values";
  let slope = !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  let r2 =
    if Float.equal !syy 0.0 then 1.0 else !sxy *. !sxy /. (!sxx *. !syy)
  in
  { slope; intercept; r2 }

let require_positive name a =
  Array.iter
    (fun x -> if not (x > 0.0) then invalid_arg ("Regress." ^ name ^ ": non-positive value"))
    a

let power_fit ns ts =
  require_positive "power_fit" ns;
  require_positive "power_fit" ts;
  linear_fit (Array.map log ns) (Array.map log ts)

let log_fit ns ts =
  require_positive "log_fit" ns;
  linear_fit (Array.map log ns) ts
