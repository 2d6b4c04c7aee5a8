(** SLO report for a server run: text summary and versioned JSON, and
    the reader that turns the JSON's causal-span members back into a
    {!Span.summary}.

    The JSON artefact follows the repo's schema conventions: a
    [schema] tag ({!schema}), deterministic key order, [%.6f] floats —
    two equal-seed runs serialise to identical bytes.  The cluster
    report builds its fleet block from the same section builders
    ({!counts_json}, {!latency_json}) and reads it back with the same
    reader ({!read_spans}), so these keys are written in one place and
    read in one place. *)

val schema : string
(** ["cgcsim-server-v2"] — v2 added the [blame] / [tails] / [exemplars]
    causal-span blocks. *)

val completed_per_s : ran_ms:float -> Server.totals -> float
(** Completed requests per simulated second over a run of [ran_ms]. *)

val counts_json :
  ran_ms:float -> Server.totals -> (string * Cgc_prof.Json.t) list
(** The [counts], [completedPerS] and [sloAttainment] members. *)

val latency_json : Server.totals -> (string * Cgc_prof.Json.t) list
(** The [latencyMs] percentile block followed by the causal-span
    members: [blame] (count, the six [*Cycles] components, [e2eCycles],
    [cyclesPerMs], [meanMs]), the worst spans as [tails] and the
    per-decade [exemplars]. *)

val mean_ms : Span.summary -> (string * float) list
(** The [meanMs] values: mean e2e first, then each blame component, in
    simulated ms per completed request. *)

val span_json : cycles_per_ms:float -> Span.t -> Cgc_prof.Json.t
(** One span object of the [tails] array. *)

val exemplar_json : cycles_per_ms:float -> int * Span.t -> Cgc_prof.Json.t
(** One object of the [exemplars] array: the span with its [decade]. *)

val read_spans : Cgc_prof.Json.t -> (Span.summary, string) result
(** The exact inverse of the span members {!latency_json} writes:
    rebuilds the summary (count, blame sums, [cyclesPerMs], worst spans,
    exemplars) from an object's [blame], [tails] and [exemplars].  It
    fails on a missing or mistyped key, and on any span or block whose
    six components do not sum to its [e2eCycles]; the message starts
    with the JSON path, e.g. ["tails[3].blame: components sum to ..."].
    The derived [meanMs] and [e2eMs] values are not read. *)

val latency_text : Buffer.t -> Server.totals -> unit
(** Append the latency percentile table, the mean blame decomposition
    line and the worst span's causal chain; shared with the cluster
    text report. *)

val text : Server.cfg -> ran_ms:float -> Server.totals -> string
(** Human-readable summary: offered/served rates, the overload-control
    counters, and the latency decomposition's percentile table. *)

val to_json : Server.cfg -> ran_ms:float -> Server.totals -> Cgc_prof.Json.t

val validate : string -> (Cgc_prof.Json.t, string) result
(** Parse a serialised report, check its [schema] tag and read its
    spans back with {!read_spans} — the server artefact's round-trip
    guard (exit code 4 territory in the CLI). *)
