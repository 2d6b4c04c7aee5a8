(** SLO report for a server run: text summary and versioned JSON.

    The JSON artefact follows the repo's schema conventions: a
    [schema] tag ({!schema}), deterministic key order, [%.6f] floats —
    two equal-seed runs serialise to identical bytes. *)

val schema : string
(** ["cgcsim-server-v2"] — v2 added the [blame] / [tails] / [exemplars]
    causal-span blocks. *)

val hist_json : Cgc_util.Histogram.t -> Cgc_prof.Json.t
(** The percentile-object shape shared by every latency block
    ([count]/[mean]/[min]/[p50]/[p95]/[p99]/[p999]/[max]) — exposed so
    the cluster report renders fleet-merged histograms identically. *)

val spans_json : Span.summary -> (string * Cgc_prof.Json.t) list
(** The [blame] / [tails] / [exemplars] members appended to the report
    object — exposed so the cluster report emits the fleet-merged
    summary in the identical shape. *)

val blame_text : Buffer.t -> Span.summary -> unit
(** Append the mean blame decomposition line and the worst span's causal
    chain; shared with the cluster text report. *)

val check_conservation : Cgc_prof.Json.t -> (unit, string) result
(** Re-check the conservation identity on a serialised report: every
    [blame] object's components must sum to its sibling [e2eCycles]
    (aggregate, tails and exemplars).  The cluster validator applies it
    to the fleet block and to each embedded per-shard report. *)

val text : Server.cfg -> ran_ms:float -> Server.totals -> string
(** Human-readable summary: offered/served rates, the overload-control
    counters, and the latency decomposition's percentile table. *)

val to_json : Server.cfg -> ran_ms:float -> Server.totals -> Cgc_prof.Json.t

val validate : string -> (Cgc_prof.Json.t, string) result
(** Parse a serialised report and check its [schema] tag — the server
    artefact's round-trip guard (exit code 4 territory in the CLI). *)
