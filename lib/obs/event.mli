(** Typed trace events.

    Every paper-relevant action of the collector emits one of these codes
    (see [docs/OBSERVABILITY.md] for the full catalogue and the mapping
    to the paper's figures and tables).  An event is either a {e span}
    ([dur >= 0], a phase with extent in simulated time) or an {e instant}
    ([dur < 0], a point occurrence); both carry the emitting simulated
    thread id and one integer payload whose meaning depends on the
    code. *)

type code =
  | Cycle_start  (** instant; arg = cycle number *)
  | Cycle_end  (** instant; arg = cycle number *)
  | Conc_mark
      (** span: the whole concurrent marking phase, kickoff to world-stop;
          arg = slots marked concurrently *)
  | Stw_pause  (** span: the full stop-the-world pause *)
  | Stw_mark  (** span: mark completion inside the pause *)
  | Stw_sweep  (** span: parallel bitwise sweep inside the pause *)
  | Stw_compact  (** span: evacuation + fix-up inside the pause *)
  | Mut_increment
      (** span: one mutator tracing increment (section 3);
          arg = slots traced *)
  | Bg_chunk  (** instant: a background-thread tracing chunk; arg = slots *)
  | Root_scan  (** instant: a stack or global-area scan; arg = roots pushed *)
  | Card_pass
      (** instant: a card-cleaning pass snapshot was taken;
          arg = cards captured *)
  | Card_clean_conc  (** instant: one card cleaned concurrently; arg = slots *)
  | Card_clean_stw  (** instant: one card cleaned inside the pause *)
  | Packet_get  (** instant: input work packet acquired; arg = entries *)
  | Packet_put  (** instant: packet returned to the pool; arg = entries *)
  | Packet_defer
      (** instant: packet parked in the Deferred sub-pool (section 5.2);
          arg = entries *)
  | Packet_recycle  (** instant: deferred packets recycled; arg = packets *)
  | Packet_steal
      (** instant: a work-stealing transfer (section 4.4 ablation);
          arg = entries stolen *)
  | Sweep_chunk
      (** span (eager region) or instant (lazy-sweep step);
          arg = live slots found *)
  | Fence_flush  (** instant: a memory fence executed; arg = fence-site id *)
  | Alloc_failure  (** instant: allocation failed, forcing a collection *)
  | Fault_inject
      (** instant: the fault injector fired; arg = the scenario's
          [Cgc_fault.Fault.index] *)
  | Degrade_force_finish
      (** instant: ladder rung 1 — allocation failure force-finished the
          in-flight concurrent cycle; arg = cycle number *)
  | Degrade_full_stw
      (** instant: ladder rung 2 — a full stop-the-world collection was
          forced; arg = cycle number *)
  | Degrade_compact
      (** instant: ladder rung 3 — an emergency compacting collection was
          forced; arg = cycle number *)
  | Oom
      (** instant: the degradation ladder was exhausted and a typed
          [Out_of_memory] is about to be raised; arg = request size *)
  | Verify_pass
      (** instant: a heap invariant verification pass completed cleanly;
          arg = objects walked *)
  | Incr_factor
      (** instant: one mutator tracing increment's tracing factor
          (actual/assigned, the Table 4 quantity), fixed-point scaled by
          1e6 in [arg].  Emitted exactly when the factor is sampled into
          [Gstats.tracing_factor], so trace analysis can reproduce the
          load-balance statistics. *)
  | Req_arrive
      (** instant: a request was admitted to the server queue
          ([cgc_server]); arg = queue depth after enqueue.  Emitted
          host-side with the synthetic server tid. *)
  | Req_start
      (** span: a request's queueing delay — [ts] is the arrival cycle,
          [dur] the wait until a worker picked it up; arg = request id. *)
  | Req_done
      (** span: a request's service time — [ts] is the dispatch cycle,
          [dur] the service duration; arg = end-to-end latency in µs. *)
  | Req_shed
      (** instant: an arrival was dropped by overload control;
          arg = 0 for queue-full drop-newest, 1 for admission throttle. *)
  | Req_timeout
      (** instant: a queued request exceeded its deadline and was
          abandoned at dispatch; arg = request id. *)
  | Req_retry
      (** instant: an admitted request had retried at the fleet front end
          before landing on this shard; arg = the number of retries (its
          backoff is charged to the request's span).  Emitted host-side at
          admission with the synthetic server tid. *)
  | Req_redirect
      (** instant: an admitted request was rerouted away from its
          first-choice shard (dark arc, crashed or flapping shard);
          arg = the first-choice shard id it was diverted from. *)
  | Req_hedge
      (** instant: an admitted request was hedged at the front end;
          arg = 1 when the hedge won (the request landed on the hedge
          target), 0 when the original choice was kept. *)
  | Cluster_fault
      (** instant: a cluster chaos scenario touched this shard — a crash,
          a cold restart, a brownout window opening, or a ring-flap
          leave/join; arg = the scenario's [Cgc_fault.Cluster_fault.index].
          Emitted host-side with the synthetic server tid into the
          affected shard incarnation's trace. *)
  | Minor_start
      (** instant: a minor (nursery) collection began ([Gen] mode);
          arg = nursery slots in use at the trigger. *)
  | Minor_done
      (** span: one whole minor collection — [ts] at the trigger, [dur]
          the time billed to the allocating mutator; arg = slots
          promoted to the old space. *)
  | Promote
      (** instant: one minor collection's survivor volume left the
          nursery; arg = slots copied into the old space (0 when
          everything died young). *)
  | Nursery_fill
      (** instant: a mutator carved a fresh allocation chunk out of the
          nursery; arg = nursery slots still unclaimed after the
          carve. *)

type t = {
  ts : int;  (** simulated cycles at the event (span: at its start) *)
  dur : int;  (** span length in cycles; negative for instants *)
  tid : int;  (** simulated thread id of the emitter *)
  code : code;
  arg : int;
}

val name : code -> string
(** Stable lowercase-dashed name, e.g. [stw-pause] — the [name] field
    of the Chrome trace event. *)

val cat : code -> string
(** Coarse grouping (["phase"], ["pause"], ["packet"], ["card"],
    ["sweep"], ["root"], ["fence"], ["cycle"], ["fault"], ["degrade"],
    ["verify"], ["server"], ["gen"]) — the [cat] field used by
    trace-viewer filtering. *)

val index : code -> int
(** A code's position in {!all_codes}, from 0 — lets per-code tables be
    flat arrays indexed without a hash. *)

val all_codes : code list
(** Every code, in declaration order — lets docs and tests enumerate the
    catalogue without chasing the variant. *)
