(** Plain-text table rendering and CSV export for experiment output.

    Rendering is deliberately dependency-free: aligned monospace columns
    with a rule under the header, suitable for terminals and for pasting
    into a markdown report. *)

type align = Left | Right

type t = {
  title : string;
  claim : string;  (** the paper's claim this table checks, quoted verbatim-ish *)
  header : string list;
  aligns : align list;  (** per column; missing entries default to Right *)
  rows : string list list;
  notes : string list;  (** free-form lines printed after the table *)
}

val make :
  ?aligns:align list ->
  ?notes:string list ->
  title:string ->
  claim:string ->
  header:string list ->
  string list list ->
  t

(* lint: allow R12 — tests read the printed table through it *)
val render : t -> string
(** Multi-line rendering, ends with a newline. *)

val print : t -> unit
(** [render] to stdout. *)

val to_csv : t -> string
(** Header + rows as RFC-4180-ish CSV (quotes doubled, fields quoted when
    needed). *)

val to_markdown : t -> string
(** GitHub-flavored markdown: a bold title line, the claim as a quote, a
    pipe table with per-column alignment markers, and the notes as a
    bulleted list.  Used by [rumor_experiments --markdown FILE] to write
    the measured-vs-paper report. *)

(** {1 Cell formatting helpers} *)

val fmt_mean_pm : Rumor_prob.Stats.summary -> string
(** ["mean ± ci"] style cell using the normal 95% interval. *)
