(** Tail forensics and LBO-distilled GC cost over serialised reports.

    The [cgcsim analyze --report/--bench] back end.  {!of_report}
    parses a latency-bearing artefact the CLI writes —
    [cgcsim-server-v2] or [cgcsim-cluster-v3] — once and hands it to
    the reader of the report module that owns its schema
    ({!Cgc_server.Report.read_spans}, {!Report.read}).  That reader
    rebuilds the exact span summary and fails, naming the JSON path, on
    a missing key or on a span or block whose six blame components do
    not sum to its end-to-end cycles; the text and JSON renderings are
    drawn from the summary it returns.

    {!lbo_of_bench} implements the lower-bound-overhead methodology of
    "Distilling the Real Cost of Production Garbage Collectors" on a
    [cgcsim-bench-v1] document: cells are grouped by workload shape,
    each group's baseline is its best service-only latency (mean e2e
    minus mean GC blame) or best throughput, and every cell's distilled
    GC cost is its fractional distance above that baseline.

    All output is derived serially from already-merged artefacts and
    every float is printed with a fixed format, so both the text and
    JSON renderings are byte-identical at any [--jobs]. *)

val bench_schema : string
(** ["cgcsim-bench-v1"]: the benchmark matrix document [bench/main.exe]
    writes and {!lbo_of_bench} reads. *)

type t = {
  source : string;  (** the source artefact's schema tag *)
  spans : Cgc_server.Span.summary;
      (** the report's spans: the fleet block's for a cluster report *)
  dropped : int;  (** ring-dropped events summed over shards *)
}

val of_report : string -> (t, string) result
(** Parse a serialised report and read it with its schema's reader;
    any tag but [cgcsim-server-v2] and [cgcsim-cluster-v3] is an
    error, and so is anything the reader rejects. *)

val text : ?n:int -> t -> string
(** Blame decomposition table plus the worst-[n] (default 16) causal
    chains, one ["= fleet-q + backoff + queue + gc-queue + service +
    gc-service"] line each.  Mean and end-to-end milliseconds are
    rounded from the [%.6f] digits the report states. *)

val to_json : ?n:int -> t -> Cgc_prof.Json.t
(** [cgcsim-tails-v1]: blame means, the worst-[n] span objects and the
    exemplar reservoir, written by the server report's own span writer,
    so they match the source report's objects byte for byte.  Its
    ["exact"] key is always [true]. *)

type lbo_row = {
  label : string;  (** bench-cell label, reconstructed from its fields *)
  group : string;  (** baseline group (same workload shape) *)
  latency : bool;  (** latency cell (ms) vs throughput cell (tx/s) *)
  value : float;  (** mean e2e ms, or tx/s *)
  gc_ms : float;  (** mean GC blame, latency cells only *)
  baseline : float;  (** the group's lower-bound baseline *)
  distilled : float;  (** fractional GC cost above the baseline *)
}

val lbo_of_bench : string -> (lbo_row list, string) result
(** Distill a {!bench_schema} document; cells without a latency or
    throughput signal are skipped. *)

val lbo_of_report : t -> lbo_row
(** Single-report distillation: the report is its own group of one, so
    the baseline is its own service-only mean. *)

val lbo_text : lbo_row list -> string
val lbo_json : lbo_row list -> Cgc_prof.Json.t
