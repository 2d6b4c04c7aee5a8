(** The open-loop request/latency subsystem.

    The paper's collector exists to keep {e server} tails short, yet the
    closed-loop workloads (SPECjbb, pBOB, javac) can only measure GC
    pauses — a closed loop stops offering load the instant the world
    stops, hiding the queueing delay a real client would eat.  This
    module layers an open-loop request simulation over a {!Vm}:

    {ul
    {- an {!Arrival} process injects request arrivals from a host-side
       scheduler hook, so arrivals continue during stop-the-world pauses
       (the open-loop property);}
    {- arrivals land in a bounded FIFO queue with two overload-control
       rungs: {e drop-newest} load shedding when the queue is full, and
       an optional hysteretic {e admission throttle} that sheds at the
       door while the backlog is above a high-water mark;}
    {- worker mutators (plain {!Cgc_runtime.Mutator} threads running a
       {!Cgc_workloads.Txmix} transaction per request) dispatch FIFO,
       abandoning requests whose deadline passed while queued;}
    {- every response is decomposed once, into an exact integer-cycle
       blame split ({!Span.blame_of}); its queueing / service / GC-pause
       inflation milliseconds are read off that split into per-worker
       bounded histograms ({!Latency}), merged for reporting.}}

    All state changes are driven by the simulated clock and split PRNG
    streams: same seed ⇒ byte-identical event trace and report. *)

type cfg = {
  rate_per_s : float;  (** average offered load, requests per second *)
  arrival : Arrival.kind;
  queue_cap : int;  (** bound on queued (not yet dispatched) requests *)
  workers : int;
  timeout_ms : float;  (** queueing deadline; 0 = none *)
  slo_ms : float;  (** end-to-end latency SLO; 0 = none *)
  slo_target : float;
      (** required attainment fraction (default 0.999) — below it,
          {!slo_breached} holds and [cgcsim serve] exits 6 *)
  throttle_hi : int;
      (** queue depth arming the admission throttle; 0 = disabled *)
  throttle_lo : int;  (** depth at which the throttle disarms *)
}

val cfg :
  ?arrival:Arrival.kind ->
  ?queue_cap:int ->
  ?workers:int ->
  ?timeout_ms:float ->
  ?slo_ms:float ->
  ?slo_target:float ->
  ?throttle_hi:int ->
  ?throttle_lo:int ->
  rate_per_s:float ->
  unit ->
  cfg
(** Defaults: Poisson arrivals, queue of 256, 4 workers, no timeout, no
    SLO, throttle off.  Every server runs the same request profile: about
    0.1 ms of work with a burst of transient allocation, its resident
    lists rescaled so all workers' resident sets total half the heap.
    Idle workers poll the queue every ~36 µs. *)

type t

val create :
  ?arrivals:Arrival.t ->
  ?degrade:int * int * float ->
  ?route:(int -> Span.route) ->
  cfg ->
  Cgc_runtime.Vm.t ->
  t
(** Spawns the worker mutators, installs the arrival hook, registers a
    {!Cgc_runtime.Vm.on_reset} hook so warm-up statistics are discarded
    by [run_measured], and — when a profiler is already enabled —
    attaches the queue-depth / in-flight probes.  Call before
    {!Cgc_runtime.Vm.run}.

    [arrivals] overrides the arrival process built from the [cfg]
    fields — the cluster layer passes {!Arrival.scripted} slices of the
    routed fleet stream here, so a shard serves exactly the requests
    the balancer sent it.  When the script carries per-arrival [delays]
    (retry backoff), the request's arrival stamp is backdated by the
    delay so queueing/end-to-end latency include the redirection time.

    [degrade] is a [(start, stop, factor)] brownout window in this VM's
    cycles: transactions dispatched inside it are stretched by
    [(factor - 1)]× their own duration, modelling a noisy neighbour
    sharing away the shard's CPUs.

    [route] maps an arrival ordinal (position in the arrival stream,
    counting shed arrivals) to the fleet routing decision that placed
    it; the cluster layer passes the balancer's per-request
    {!Span.route} records here so every completed request's causal span
    carries its route, retries and hedge outcome.  Defaults to
    {!Span.local_route}. *)

val the_cfg : t -> cfg

val attach_probes : t -> unit
(** Register the ["server-queue-depth"] and ["server-in-flight"] probes
    on the VM's profiler (idempotent; no-op when no profiler is
    enabled).  {!create} calls this automatically if the profiler was
    enabled first; call it manually after a later
    [Vm.enable_profiler]. *)

val queue_depth : t -> int
val in_flight : t -> int

val shed_now : t -> int
(** Requests shed so far (queue-full + throttled) — an O(1) read the
    cluster shard's timeline sampler polls every scheduler tick. *)

type totals = {
  arrived : int;  (** every generated arrival, including shed ones *)
  admitted : int;
  shed_full : int;  (** dropped because the queue was full *)
  shed_throttled : int;  (** dropped by the admission throttle *)
  timed_out : int;  (** abandoned at dispatch: deadline passed in queue *)
  completed : int;
  slo_violations : int;  (** completed, but over [slo_ms] end-to-end *)
  max_depth : int;  (** high-water queue depth *)
  lat : Latency.t;  (** all workers' accounting, histogram-merged *)
  spans : Span.summary;
      (** exact blame decomposition over every completed request, plus
          the worst-{!Span.worst_k} spans and per-decade exemplars *)
}

val totals : t -> totals

val slo_attainment : totals -> float
(** Fraction of {e offered-and-resolved} requests (completed + shed +
    timed out) that completed within the SLO; 1.0 when none resolved.
    Sheds and timeouts count as violations — a dropped request is the
    worst latency of all. *)

val slo_breached : t -> bool
(** [slo_ms > 0] and attainment below [slo_target]. *)
