(** The tree's single clock.

    Every wall-clock read in the repository goes through this module — lint
    rule R8 ("clock confinement") rejects [Unix.gettimeofday] / [Sys.time] /
    [Mtime]-style calls anywhere outside [lib/obs/].  Confinement buys the
    same things R7 bought for concurrency: one audited call site, one place
    to swap the time source (e.g. for a monotonic clock or a fake clock in
    tests), and a guarantee that simulation *logic* never reads real time —
    only the observability layer does.

    Resolution is microseconds (the resolution of the underlying
    [gettimeofday]), which is far below the span granularity the tracer
    records (rounds, replications, graph-build phases — all >= tens of
    microseconds at the scales that matter). *)

val now_s : unit -> float
(** Seconds since the Unix epoch, as a float. *)

val now_us : unit -> float
(** Microseconds since the Unix epoch ([1e6 *. now_s ()]); the unit the
    Chrome [trace_event] format uses for its [ts]/[dur] fields. *)

val elapsed_s : since:float -> float
(** [elapsed_s ~since:t0] is [now_s () -. t0]. *)
