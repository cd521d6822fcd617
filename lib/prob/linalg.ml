let check_square a =
  let n = Array.length a in
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Linalg: matrix is not square")
    a;
  n

let solve a b =
  let n = check_square a in
  if Array.length b <> n then invalid_arg "Linalg.solve: dimension mismatch";
  (* work on copies; augmented system [m | x] *)
  let m = Array.map Array.copy a in
  let x = Array.copy b in
  for col = 0 to n - 1 do
    (* partial pivoting *)
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if Float.abs m.(row).(col) > Float.abs m.(!pivot).(col) then pivot := row
    done;
    if Float.abs m.(!pivot).(col) < 1e-12 then
      invalid_arg "Linalg.solve: singular matrix";
    if !pivot <> col then begin
      let tmp = m.(col) in
      m.(col) <- m.(!pivot);
      m.(!pivot) <- tmp;
      let t = x.(col) in
      x.(col) <- x.(!pivot);
      x.(!pivot) <- t
    end;
    (* eliminate below *)
    for row = col + 1 to n - 1 do
      let factor = m.(row).(col) /. m.(col).(col) in
      if not (Float.equal factor 0.0) then begin
        m.(row).(col) <- 0.0;
        for k = col + 1 to n - 1 do
          m.(row).(k) <- m.(row).(k) -. (factor *. m.(col).(k))
        done;
        x.(row) <- x.(row) -. (factor *. x.(col))
      end
    done
  done;
  (* back substitution *)
  for col = n - 1 downto 0 do
    let sum = ref x.(col) in
    for k = col + 1 to n - 1 do
      sum := !sum -. (m.(col).(k) *. x.(k))
    done;
    x.(col) <- !sum /. m.(col).(col)
  done;
  x
