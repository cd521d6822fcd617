(** Low-overhead execution tracing: spans, instants and counter samples.

    A tracer is a flat, preallocated, growable event buffer.  Recording a
    span costs two clock reads, two GC-counter reads and a handful of array
    stores — no per-event allocation (event names are stored as the string
    pointers the caller passes, so literals cost nothing).  The layers that
    carry a [?trace] argument ({!Rumor_protocols.Engine} round kernels,
    [Rumor_par.Pool] workers, [Graph.Builder] phases, [Replicate], the DES
    loops) match on the option at every site, so a run with tracing
    disabled executes exactly the pre-trace instruction stream: no closures,
    no [Some] cells, no clock reads.

    {2 Spans and nesting}

    [begin_span]/[end_span] must bracket properly — [end_span] closes the
    innermost open span (a per-tracer stack tracks them).  Span durations
    and GC deltas (minor words allocated, major collections) are filled in
    at [end_span]; both exporters refuse a tracer with open spans, which is
    what keeps committed traces structurally valid.

    {2 Domains}

    A tracer belongs to one domain.  Parallel sections give each worker its
    own child via {!fork} (same epoch, its own [tid]) and the owner calls
    {!join} after the worker is joined — the single-writer discipline that
    keeps [lib/obs] free of locks (concurrency primitives stay confined to
    [lib/par], rule R7).  In the exported trace each [tid] renders as its
    own track, so domain timelines sit side by side with their fork/join
    markers and idle gaps visible.

    {2 Export}

    Two formats, chosen by file extension at the CLIs:
    - Chrome [trace_event] JSON ([.json]): load in Perfetto
      ({:https://ui.perfetto.dev}) or [chrome://tracing].
    - [rumor-trace/1] JSONL ([.jsonl]): one event per line, streaming-friendly,
      the same family as {!Run_record} metrics files.

    [rumor_report trace] reads either. *)

type t

val create : ?hint:int -> ?pid:int -> ?tid:int -> unit -> t
(** [create ()] starts an empty tracer whose epoch is "now"; all event
    timestamps are microseconds since that epoch.  [hint] pre-sizes the
    event buffer (default 1024 events; it grows by doubling).  [pid]/[tid]
    default to 0 — [pid] identifies the process track group in the Chrome
    UI, [tid] the track events record on. *)

val counters : t -> Counters.t
(** The scalar registry riding along with this tracer; serialized into both
    export formats. *)

val tid : t -> int

val events : t -> int
(** Number of recorded events (open spans included). *)

(* lint: allow R12 — tests check that every span closes *)
val open_spans : t -> int
(** Depth of the open-span stack; 0 iff the tracer is balanced. *)

(** {1 Recording} *)

val begin_span : t -> ?arg:int -> string -> unit
(** Open a span named [name].  [arg] is an optional small integer payload
    (round number, shard id, replicate index) exported as [args.arg]. *)

val end_span : t -> unit
(** Close the innermost open span, fixing its duration and GC deltas.
    @raise Invalid_argument if no span is open. *)

val instant : t -> ?arg:int -> string -> unit
(** A point event (fork/join markers and the like). *)

val counter : t -> string -> int -> unit
(** [counter t name v] records a time-stamped sample of a numeric series
    (frontier size, queue length, ...); renders as a counter track. *)

val with_span : t option -> ?arg:int -> string -> (unit -> 'a) -> 'a
(** Bracket [f] in a span when a tracer is present; just run [f] otherwise.
    The exception-safe convenience for cold paths — hot loops match on the
    option and call {!begin_span}/{!end_span} directly instead. *)

(** {1 Worker forking} *)

val fork : t -> tid:int -> t
(** A child tracer with the parent's epoch and pid, an empty buffer, its
    own counter registry, and the given [tid].  Hand exactly one child to
    each worker domain. *)

val join : t -> t -> unit
(** [join parent child] appends the child's events into the parent and
    folds the child's counter registry into the parent's (the child keeps
    its state; join it once).  Call only after the worker domain is
    joined.  @raise Invalid_argument if the child has open spans or was not
    forked from [parent]. *)

(** {1 Export} *)

val write_chrome : t -> string -> unit
val write_jsonl : t -> string -> unit
(** Write the trace to a file; same open-span precondition. *)

(** {1 Reading}

    The inverse direction, used by [rumor_report trace] and the tests. *)

type event = {
  ph : [ `Span | `Instant | `Counter ];
  name : string;
  ts_us : float;  (** microseconds since the tracer's epoch *)
  dur_us : float;  (** 0 for instants and counter samples *)
  tid : int;
  arg : int option;
  value : int;  (** counter sample value; 0 for spans/instants *)
  alloc_w : float;  (** minor words allocated during a span *)
  major_gcs : int;  (** major collections finished during a span *)
}

type file = { file_events : event list; file_counters : Counters.t }

val read_file : string -> (file, string) result
(** Load a trace in either format (auto-detected: a Chrome document is one
    JSON object with a [traceEvents] field, a JSONL stream leads with the
    [rumor-trace/1] schema line). *)
