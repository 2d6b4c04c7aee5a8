(** Per-request causal spans and the exact blame decomposition.

    Every completed request yields one {!t}: the fleet routing decision
    that placed it (shard, epoch, retry count, hedge outcome), its
    shard-side enqueue/dispatch/finish stamps, and a {!blame} record
    splitting its end-to-end latency into integer-cycle components.
    The split obeys an exact conservation identity —
    {!blame_total}[ b = finish - (enqueue - backoff)] — asserted at
    runtime for every request, re-checked by the report validators and
    property-tested across chaos scenarios. *)

type route = {
  rid : int;  (** fleet-unique request id (arrival index) *)
  first : int;  (** first-choice shard before any reroute *)
  shard : int;  (** shard that finally served the request *)
  epoch : int;  (** routing epoch at placement *)
  attempts : int;  (** retries before placement (0 = first try) *)
  hedged : bool;  (** a hedge was issued at the front end *)
  hedge_win : bool;  (** the hedge target won the race *)
}

val local_route : int -> route
(** Route for a single-VM [serve] run: shard 0, epoch 0, no retries. *)

type blame = {
  fleet_queue : int;  (** front-end queueing (reserved; 0 today) *)
  backoff : int;  (** retry backoff before shard enqueue *)
  queue : int;  (** shard queueing net of GC overlap *)
  gc_queue : int;  (** stopped-world cycles overlapping the queue wait *)
  service : int;  (** service time net of GC overlap *)
  gc_service : int;  (** stopped-world cycles inflating the service *)
}
(** All components in simulated cycles. *)

val blame_total : blame -> int
(** Sum of all six components — exactly the e2e latency in cycles. *)

val zero_blame : blame

val blame_of :
  pre:int ->
  enqueue:int ->
  start:int ->
  finish:int ->
  s_enq:int ->
  s_start:int ->
  s_fin:int ->
  blame
(** [blame_of ~pre ~enqueue ~start ~finish ~s_enq ~s_start ~s_fin]
    decomposes one request.  [pre] is the backoff charged before the
    true enqueue stamp [enqueue]; [s_enq]/[s_start]/[s_fin] are the
    VM's cumulative stopped-world integral sampled at enqueue, dispatch
    and completion.  The GC overlaps are clamped to the interval they
    overlap and queue/service are the remainders, so the identity
    [blame_total b = finish - enqueue + pre] holds exactly. *)

type t = {
  route : route;
  enqueue : int;  (** true shard-enqueue cycle (after backoff) *)
  start : int;  (** dispatch cycle *)
  finish : int;  (** completion cycle *)
  blame : blame;
}

val e2e_cycles : t -> int
(** End-to-end latency in cycles, including backoff ([blame_total]). *)

val worse : t -> t -> int
(** Total order for the worst-N list: e2e descending, then request id
    ascending.  Request ids are fleet-unique, so this is total. *)

val worst_k : int
(** Worst spans retained per summary (32). *)

type summary = {
  count : int;  (** completed requests folded in *)
  sum : blame;  (** componentwise blame totals *)
  sum_e2e : int;  (** total e2e cycles; equals [blame_total sum] *)
  worst : t list;  (** worst spans under {!worse}, at most {!worst_k} *)
  exemplars : (int * t) list;
      (** (decade, span) exemplars, at most 4 per decade,
          ordered by decade then request id *)
  cycles_per_ms : float;  (** conversion used for decades and reports *)
}

val empty_summary : summary

val merge : summary -> summary -> summary
(** Order-sensitive but deterministic merge: fold shard summaries in
    shard/incarnation order.  Worst lists merge under {!worse};
    exemplars keep the lowest request ids per decade. *)

type collector
(** Mutable per-VM span collector.  Aggregates exactly, retains the
    worst {!worst_k} spans, and keeps a deterministic seed-derived
    reservoir of 4 exemplars per latency decade so memory
    stays bounded no matter how many requests complete. *)

val create : cycles_per_ms:float -> seed:int -> collector
(** The reservoir PRNG derives from [seed], so runs are reproducible. *)

val clear : collector -> unit
(** Forget everything (used by warmup [reset]). *)

val record : collector -> t -> unit
val summary : collector -> summary
