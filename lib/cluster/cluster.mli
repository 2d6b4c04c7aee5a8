(** The sharded multi-VM cluster: N shard simulations behind a
    front-end load balancer, the shards run on host domains ({!Dpool}).

    A run has three phases:

    {ol
    {- {e front end} (serial, deterministic): draw the fleet arrival
       stream once from a dedicated PRNG root, then route every arrival
       through the {e epoch router} — the balancer re-reads each shard's
       liveness only at epoch boundaries ({!cfg.epoch_ms}, default one
       timeline bin), and between boundaries walks the per-request
       degradation ladder: {e reroute} around balancer-visibly dark
       shards, {e retry} with doubling backoff (plus optional hedging)
       when a target turns out dark mid-epoch, {e fleet-wide admission
       throttle} once the visible live fraction falls to
       [fleet_throttle_frac], and finally a typed {!Fleet_unavailable}
       (CLI exit 7) after [give_up] unroutable requests;}
    {- {e shards} (parallel): each shard {e incarnation} replays its
       routed slice as a complete, self-contained VM + server simulation
       ({!Shard.run}), distributed over the {!Dpool} — a restarted shard
       is simply another independent job with a fresh heap;}
    {- {e merge} (serial): per-incarnation totals fold into fleet totals
       and the {!Report} derives fleet phenomena, availability and
       time-to-recover.}}

    Because phase 1 is serial and a pure function of [(cfg, plan)], and
    phase 2's simulations share no state, every per-shard trace and
    report — and therefore the fleet report — is byte-identical at any
    [--jobs], under every chaos scenario. *)

type cfg = {
  shards : int;
  policy : Balancer.policy;
  rate_per_s : float;  (** {e fleet} offered load, requests per second *)
  server : Cgc_server.Server.cfg;
      (** per-shard server parameters; its [rate_per_s] is the nominal
          per-shard share [rate_per_s /. shards] *)
  service_est_ms : float;
      (** the balancer's estimate of mean service time, parameterising
          the least-queue fluid model *)
  bin_ms : float;  (** fleet-phenomena timeline bin width *)
  gc : Cgc_core.Config.t;
  heap_mb : float;  (** per-shard heap *)
  ncpus : int;  (** per-shard simulated CPUs *)
  seed : int;  (** fleet seed; shard seeds are derived from it *)
  ms : float;
  trace : bool;  (** arm every shard's event sink *)
  trace_ring : int;
  chaos : Cgc_fault.Cluster_fault.scenario option;
  chaos_seed : int;  (** seeds the chaos plan (victim, window jitter) *)
  epoch_ms : float;  (** balancer liveness re-read interval *)
  retries : int;  (** per-request retry budget *)
  retry_base_ms : float;  (** first backoff; doubles per attempt *)
  hedge_margin : float;
      (** hedge to a shard whose modelled depth undercuts the primary's
          by at least this many requests; 0 disables *)
  fleet_throttle_frac : float;
      (** arm the fleet admission throttle at or below this visible live
          fraction *)
  give_up : int;  (** unroutable requests before {!Fleet_unavailable} *)
}

val cfg :
  ?shards:int ->
  ?policy:Balancer.policy ->
  ?arrival:Cgc_server.Arrival.kind ->
  ?queue_cap:int ->
  ?workers:int ->
  ?timeout_ms:float ->
  ?slo_ms:float ->
  ?slo_target:float ->
  ?throttle_hi:int ->
  ?throttle_lo:int ->
  ?service_est_ms:float ->
  ?bin_ms:float ->
  ?gc:Cgc_core.Config.t ->
  ?heap_mb:float ->
  ?ncpus:int ->
  ?seed:int ->
  ?ms:float ->
  ?trace:bool ->
  ?trace_ring:int ->
  ?chaos:Cgc_fault.Cluster_fault.scenario ->
  ?chaos_seed:int ->
  ?epoch_ms:float ->
  ?retries:int ->
  ?retry_base_ms:float ->
  ?hedge_margin:float ->
  ?fleet_throttle_frac:float ->
  ?give_up:int ->
  rate_per_s:float ->
  unit ->
  cfg
(** Defaults: 4 shards, round-robin, Poisson arrivals, per-shard queue
    of 256 and 4 workers, no timeout/SLO/throttle, 0.12 ms service
    estimate, 10 ms bins, CGC with paper parameters, 24 MB heap and
    4 CPUs per shard, seed 1, 2000 ms, tracing off; chaos off,
    chaos seed 1, [epoch_ms = bin_ms], 3 retries from a 0.25 ms base,
    hedging off, fleet throttle at a half-dark fleet, give-up after 100
    unroutable requests.  The server overload-control options mirror
    [cgcsim serve]; [rate_per_s] is the whole fleet's offered load.
    Raises [Invalid_argument] on non-positive shard count, bin width or
    service estimate, out-of-range chaos knobs, and whatever
    {!Cgc_server.Server.cfg} rejects. *)

val shard_seed : cfg -> int -> int
(** The derived VM seed for shard [k] — exposed so a single shard can
    be re-run standalone (e.g. to re-trace one shard of a campaign). *)

type chaos_info = {
  plan : Cgc_fault.Cluster_fault.plan;
  drawn : int;  (** fleet arrivals drawn up to the horizon *)
  retried : int;  (** retry attempts issued (with backoff) *)
  redirected : int;  (** requests that landed off their first target *)
  hedge_wins : int;  (** requests served by the hedged copy *)
  shed_fleet : int;  (** shed by the fleet-wide admission throttle *)
  lost_unroutable : int;  (** no routable shard within the retry budget *)
  epoch_cfg_ms : float;
  digests : int64 array;  (** per-epoch routing-table digest *)
  live_epochs : int array;  (** per-epoch balancer-visible live count *)
  ttr_ms : float option;
      (** balancer-visible time-to-recover: plan onset to the first
          epoch boundary after the last degraded epoch; plan-derived for
          brownouts (which the balancer never sees); [None] when the
          fleet never recovers or chaos is off *)
}

type fleet_bins = { placed : int array; shed : int array; lost : int array }
(** Fleet-level per-bin arrival accounting for the merged timeline:
    requests the front end placed on some shard (at their possibly
    backed-off placement stamp), shed at the fleet door, or lost as
    unroutable, each bucketed by [cfg.bin_ms] over the fleet horizon. *)

type result = {
  cfg : cfg;
  shards : Shard.result array;
      (** one entry per shard {e incarnation}, ordered by
          [(shard id, incarnation)] — exactly one per shard when chaos
          is off *)
  chaos : chaos_info;
  bins : fleet_bins;
}

type unavailable = {
  at_ms : float;
  scenario : string;
  live : int;  (** balancer-visible live shards at the give-up point *)
  of_shards : int;
  placed : int;  (** requests successfully placed before giving up *)
  lost : int;
  retries_spent : int;
}
(** The diagnostic record carried by {!Fleet_unavailable}. *)

exception Fleet_unavailable of unavailable
(** The last rung of the fleet degradation ladder; [cgcsim cluster]
    maps it to exit code 7. *)

val unavailable_to_string : unavailable -> string

val run : cfg -> result
(** Execute the three phases, the shards on {!Dpool} (so [--jobs]
    controls shard parallelism); a shard that raises is re-raised here
    after the remaining shards finish.  Raises
    {!Fleet_unavailable} from the serial front end when the ladder
    bottoms out. *)

val fleet_totals : result -> Cgc_server.Server.totals
(** Sum of every incarnation's counters, maximum of queue high-water
    marks, histogram-merge of latency accounting — the same shape a
    single server reports, so SLO accounting composes. *)

val lost_crashed : result -> int
(** Requests admitted by an incarnation that then crashed — the queue
    that went down with the shard. *)

val unarrived : result -> int
(** Routed requests an incarnation never consumed (scripted past its
    end) — in transit at the horizon or at a crash.  With
    {!lost_crashed}, {!chaos_info} counters and {!fleet_totals} this
    closes the conservation identity: every drawn arrival is placed,
    fleet-shed or lost, and every placed one is served, shed, timed
    out, unfinished or unarrived. *)

val availability : result -> float
(** Completed fraction of all drawn fleet arrivals. *)

val slo_attainment : result -> float
(** {!Cgc_server.Server.slo_attainment} of {!fleet_totals}. *)

val slo_breached : result -> bool
(** An SLO was configured and {e fleet} attainment is below target —
    the [cgcsim cluster] exit-6 condition. *)
