(** Per-worker request-latency accounting.

    Each server worker owns one accumulator; {!Server.totals} combines
    them with {!Cgc_util.Histogram.merge}, so percentiles are computed
    over the union of all workers' samples while the histograms record
    without allocating.  All values are simulated milliseconds, read off
    each request's {!Span.blame} split. *)

type t

val create : unit -> t

val observe : t -> slo_ms:float -> cycles_per_ms:float -> Span.blame -> float
(** Record one completed request from its blame split and return its
    end-to-end ms.  Queueing is backoff + queue + gc-queue, service is
    service + gc-service, end-to-end is their sum and the GC inflation
    is gc-queue + gc-service, each converted to ms.  Counts an SLO
    violation when [slo_ms > 0] and end-to-end exceeds it. *)

val handled : t -> int
val slo_violations : t -> int

val e2e : t -> Cgc_util.Histogram.t
val queueing : t -> Cgc_util.Histogram.t
val service : t -> Cgc_util.Histogram.t
val gc : t -> Cgc_util.Histogram.t

val merge : t -> t -> t
(** Bucket-wise combination of every histogram plus the counters. *)

val clear : t -> unit
