(** Tail forensics and LBO-distilled GC cost over serialised reports.

    The [cgcsim analyze --tails/--lbo] back end.  {!of_report} accepts
    the latency-bearing artefacts the CLI writes — [cgcsim-server-v2]
    and [cgcsim-cluster-v3] — and normalises them into one view: the
    fleet-wide blame decomposition plus the worst-N causal chains.  Both
    schemas carry exact spans, so every chain's six blame components sum
    exactly to the request's end-to-end cycles.

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

type tail = {
  rid : int;  (** fleet-unique request id *)
  shard : int;  (** shard that served it *)
  first : int;  (** router's first-choice shard *)
  epoch : int;  (** routing epoch at placement *)
  attempts : int;  (** retries before placement *)
  hedged : bool;
  hedge_win : bool;
  e2e_cycles : int;
  e2e_ms : float;
  fleet_queue : int;  (** blame components, cycles; sum = e2e *)
  backoff : int;
  queue : int;
  gc_queue : int;
  service : int;
  gc_service : int;
}

type t = {
  source : string;  (** the source artefact's schema tag *)
  count : int;  (** completed requests *)
  cycles_per_ms : float;
  mean_ms : (string * float) list;  (** component -> mean ms, e2e first *)
  tails : tail list;  (** worst-first *)
  exemplars : (int * tail) list;  (** (latency decade, span) *)
  tails_json : Json.t list;
      (** raw span objects, passed through verbatim into {!to_json} *)
  exemplars_json : Json.t list;
  dropped : int;  (** ring-dropped events summed over shards *)
}

val of_report : string -> (t, string) result
(** Parse a serialised report and dispatch on its schema tag;
    any tag but [cgcsim-server-v2] and [cgcsim-cluster-v3] is an
    error. *)

val text : ?n:int -> t -> string
(** Blame decomposition table plus the worst-[n] (default 16) causal
    chains, one ["= fleet-q + backoff + queue + gc-queue + service +
    gc-service"] line each. *)

val to_json : ?n:int -> t -> Json.t
(** [cgcsim-tails-v1]: blame means, the worst-[n] raw span objects and
    the exemplar reservoir, copied verbatim from the source report.  Its
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

val lbo_of_report : string -> (lbo_row, string) result
(** Single-report distillation: the report is its own group of one, so
    the baseline is its own service-only mean. *)

val lbo_text : lbo_row list -> string
val lbo_json : lbo_row list -> Json.t
