let now_s () = Unix.gettimeofday ()
let now_us () = 1e6 *. Unix.gettimeofday ()
let elapsed_s ~since = Unix.gettimeofday () -. since
