let unicode_levels = [| " "; "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]
let ascii_levels = [| " "; "."; ":"; "-"; "="; "+"; "*"; "#"; "@" |]

let render ?(width = 60) ?(ascii = false) xs =
  let n = Array.length xs in
  if n = 0 || width <= 0 then ""
  else begin
    let levels = if ascii then ascii_levels else unicode_levels in
    let top = float_of_int (Array.length levels - 1) in
    let max_v = Array.fold_left (fun acc x -> Float.max acc x) 0.0 xs in
    let width = min width n in
    let buf = Buffer.create (width * 3) in
    for i = 0 to width - 1 do
      (* bucket [lo, hi): downsample by maximum *)
      let lo = i * n / width and hi = max (((i + 1) * n / width) - 1) (i * n / width) in
      let bucket_max = ref 0.0 in
      for j = lo to hi do
        if xs.(j) > !bucket_max then bucket_max := xs.(j)
      done;
      let level =
        if max_v <= 0.0 then 0
        else
          let scaled = !bucket_max /. max_v *. top in
          let l = int_of_float (Float.round scaled) in
          if l < 0 then 0 else if l > int_of_float top then int_of_float top else l
      in
      Buffer.add_string buf levels.(level)
    done;
    Buffer.contents buf
  end

let render_ints ?width ?ascii xs = render ?width ?ascii (Array.map float_of_int xs)
