(** Trace and metrics serialisation — and the matching re-parsers.

    Two formats, both deterministic (stable event order from
    {!Obs.events}, fixed-precision number formatting, no host clock):

    {ul
    {- {b Chrome [trace_event] JSON} — load the file in
       [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.  Spans
       become complete (["ph":"X"]) events, instants thread-scoped
       instant (["ph":"i"]) events; the simulated thread id becomes the
       viewer row, and the integer payload is exposed as [args.v].  The
       top-level object carries a [cgcSchema] version tag plus the
       clock rate and ring-drop counters, so [cgcsim analyze] can reject
       incompatible files and warn about truncated history.}
    {- {b CSV} — one row per GC cycle, produced by {!Cgc_core.Gstats};
       this module only provides the generic writer, with an optional
       [#schema=...] first line for the same version-rejection.}}

    {!parse_chrome_json} and {!parse_csv} invert the two writers exactly:
    re-exporting a parsed file reproduces it byte for byte (tested), which
    is what lets the profiler analyse previously written traces instead of
    only live runs. *)

val trace_schema : string
(** The schema tag written into (and required from) trace JSON files. *)

type trace_meta = {
  cycles_per_us : float;  (** simulated cycles per exported microsecond *)
  emitted : int;  (** total events emitted by the recording run *)
  dropped : int;  (** events lost to ring overflow before export *)
}

val chrome_json :
  ?emitted:int -> ?dropped:int -> cycles_per_us:float -> Event.t list -> string
(** Serialise (already-ordered) events, converting cycle timestamps to
    microseconds — the unit the trace-event spec mandates — at
    [cycles_per_us] simulated cycles per microsecond.  [emitted] and
    [dropped] (default 0) are recorded in the header so analysis of the
    file can report how much history the rings lost. *)

val chrome_obs : cycles_per_us:float -> Obs.t -> string
(** {!chrome_json} of every event the sink holds, with its emitted and
    dropped counts — the same bytes {!chrome_json} writes for
    {!Obs.events}, but written straight from the sink's rings
    ({!Obs.iter_sorted}) without building a record per event. *)

val output_chrome_obs : out_channel -> cycles_per_us:float -> Obs.t -> unit
(** Writes the bytes of {!chrome_obs} to the channel through a fixed
    64 KB buffer, never holding the whole document. *)

val format_us : cycles_per_us:float -> int -> string
(** One timestamp field as the writer prints it: exactly
    [Printf.sprintf "%.3f" (float c /. cycles_per_us)], produced by
    integer arithmetic whenever that is provably the same string. *)

val parse_chrome_json : string -> (trace_meta * Event.t list, string) result
(** Strict inverse of {!chrome_json}: recovers the integer cycle
    timestamps (exact for [cycles_per_us < 1000], the range it accepts)
    and typed codes, and re-exporting the result reproduces the input
    byte for byte.  Total: malformed input of any kind is an [Error]
    carrying a human-readable reason and the byte offset — unsupported
    schema, unknown event name, a number without exactly three
    decimals, a missing field, trailing bytes — never an exception. *)

val csv : ?schema:string -> header:string list -> string list list -> string
(** RFC-4180-enough CSV: comma-separated, ["\n"] line ends, fields
    containing commas or quotes are double-quoted.  [schema] (off by
    default) prepends a [#schema=NAME] line identifying the column
    contract to {!parse_csv}. *)

val parse_csv :
  string -> (string option * string list * string list list, string) result
(** [Ok (schema, header, rows)] — inverse of {!csv}, including quoted
    fields.  [schema] is [None] when the file has no [#schema=] line. *)

val write_file : string -> string -> unit
(** [write_file path contents] — plain [open_out]/[output_string], binary
    mode so the bytes written are exactly the bytes compared by the
    determinism tests. *)
