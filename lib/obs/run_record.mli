(** One machine-readable record per protocol replicate.

    A run record captures everything the paper's evaluation judges a
    protocol on — the full informed-count trajectory, not just a scalar
    broadcast time — plus the bookkeeping later perf PRs need as a baseline:
    wall-clock seconds and GC allocation counters.

    Records serialize to single-line JSON so a file of them is JSONL,
    consumable with [jq] or any dataframe library.  Schema (one object per
    line):

    {v
    { "seed": int,            // master seed of the replication batch
      "rep": int,             // replicate index within the batch, from 0
      "graph": string,        // graph spec or experiment label
      "protocol": string,     // protocol name (Protocol.name)
      "vertices": int,        // |V| of the run's graph
      "broadcast_time": int | null,   // null iff the run was capped
      "rounds_run": int,
      "capped": bool,
      "contacts": int,
      "informed_curve": [int, ...],   // index r = informed after round r
      "wall_seconds": float,
      "gc": { "minor_words": float,
              "major_words": float,
              "promoted_words": float } }
    v}

    The reader ignores unknown fields, so older metrics files keep loading:
    their retired engine flag and shard count are dropped. *)

(** Allocation counters, as deltas over one run (in words, the unit
    [Gc.minor_words] et al. report). *)
type gc_counters = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

type t = {
  seed : int;
  rep : int;
  graph : string;
  protocol : string;
  vertices : int;
  broadcast_time : int option;
  rounds_run : int;
  capped : bool;
  contacts : int;
  informed_curve : int array;
  wall_seconds : float;
  gc : gc_counters;
}

type sink = t -> unit
(** A consumer of records; see {!with_jsonl_file}. *)

val timed : (unit -> 'a) -> 'a * float * gc_counters
(** [timed f] runs [f ()] and returns its result together with elapsed
    wall-clock seconds and the GC allocation delta. *)

(* lint: allow R12 — the record codec tests encode with it *)
val to_json : t -> string
(** Single-line JSON rendering of the record (no trailing newline). *)

val with_jsonl_file : ?append:bool -> string -> (sink -> 'a) -> 'a
(** [with_jsonl_file path f] opens [path], hands [f] a sink appending one
    JSONL line per record, and closes the file when [f] returns or raises.

    By default the file is truncated; with [~append:true] new records are
    appended after any existing ones, so a sweep that invokes the CLI many
    times (one graph size or seed per invocation) can accumulate a single
    metrics file and analyze it in one [rumor_report summary] call. *)

(** {1 Reading records back}

    The inverse direction of {!to_json}/{!with_jsonl_file}, used by the
    analysis layer ({!Aggregate}, {!Baseline}, [rumor_report]). *)

val of_json : string -> (t, string) result
(** Parse one record from its single-line JSON form.  Unknown fields are
    ignored (forward compatibility); a missing or ill-typed field is an
    [Error] naming it. *)

exception Jsonl_error of { path : string; line : int; msg : string }
(** Raised by {!read_jsonl} on the first malformed line; [line] is 1-based.
    A printer is registered, so it formats as ["path:line: msg"]. *)

val read_jsonl : string -> t list
(** [read_jsonl path] reads a metrics file line by line (streaming — the
    file is never held in memory wholesale), skipping blank lines, and
    returns the records in file order.  Any other malformed content —
    including trailing garbage from a truncated final write — raises
    {!Jsonl_error} with the offending line number.
    @raise Sys_error if the file cannot be opened. *)
