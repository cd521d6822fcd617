type t = { mutable count : int; mutable mean : float; mutable m2 : float }

let create () = { count = 0; mean = 0.0; m2 = 0.0 }

let add t x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean))

let add_int t x = add t (float_of_int x)

let mean t = if t.count = 0 then nan else t.mean
let variance t = if t.count < 2 then nan else t.m2 /. float_of_int (t.count - 1)
let stddev t = sqrt (variance t)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  q25 : float;
  median : float;
  q75 : float;
  max : float;
}

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  if q <= 0.0 then sorted.(0)
  else if q >= 1.0 then sorted.(n - 1)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let frac = pos -. float_of_int lo in
    if lo + 1 >= n then sorted.(n - 1)
    else sorted.(lo) +. (frac *. (sorted.(lo + 1) -. sorted.(lo)))
  end

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let acc = create () in
  Array.iter (add acc) xs;
  {
    n;
    mean = mean acc;
    stddev = (if n < 2 then 0.0 else stddev acc);
    min = sorted.(0);
    q25 = quantile sorted 0.25;
    median = quantile sorted 0.5;
    q75 = quantile sorted 0.75;
    max = sorted.(n - 1);
  }

