(** Shared plumbing for the paper-reproduction experiments.

    Every experiment runs one or more VMs with a warm-up window (so the
    L/M/Best estimators have converged, as the paper's steady-state
    measurements assume), extracts a {!metrics} record, and renders the
    paper's tables/figures as text tables. *)

type metrics = {
  label : string;
  throughput : float;  (** transactions per simulated second *)
  avg_pause : float;  (** ms *)
  max_pause : float;
  avg_mark : float;
  max_mark : float;
  avg_sweep : float;
  max_sweep : float;
  occupancy : float;  (** mean heap occupancy after GC, fraction *)
  conc_cards : float;  (** mean cards cleaned concurrently per cycle *)
  stw_cards : float;
  cycles : int;
  premature : int;  (** cycles whose concurrent phase finished all work *)
  halted : int;  (** cycles halted by allocation failure *)
  cc_fail_pct : float;  (** % of cycles with stw/conc card ratio > 20% *)
  free_fail_pct : float;  (** % of cycles finishing early with > 5% free *)
  cards_left_pct : float;  (** % of cycles halted with cards left to clean *)
  avg_cards_left : float;
  pre_rate : float;  (** pre-concurrent allocation rate, KB/ms *)
  conc_rate : float;  (** concurrent-phase allocation rate, KB/ms *)
  utilization : float;  (** conc_rate / pre_rate *)
  tracing_factor : float;  (** mean actual/assigned per increment *)
  fairness : float;  (** mean per-cycle stddev of tracing factors *)
  cas_avg : float;  (** mean CAS ops per cycle per live MB *)
  cas_max : float;
  fences_total : int;
  pkt_in_use_hw : int;  (** high-water packets in use *)
  pkt_entries_hw : int;  (** high-water entries across packets *)
  heap_slots : int;
  idle_frac : float;  (** processor idle fraction over the run *)
}

val collect : label:string -> Cgc_runtime.Vm.t -> metrics
(** Extract a {!metrics} record from a finished VM run.  Every record is
    also appended to the session registry (see {!recorded}), so the CLI
    driver can dump everything an experiment measured as CSV. *)

val recorded : unit -> metrics list
(** All metrics collected since start-up (or {!reset_recorded}), in
    collection order. *)

val reset_recorded : unit -> unit

val runs_schema : string
(** The [#schema=] tag on experiment CSV dumps: ["cgcsim-runs-v1"]. *)

val write_metrics_csv : string -> unit
(** Write every recorded metrics record to [path] as CSV, first line
    [#schema=cgcsim-runs-v1], so consumers can reject incompatible
    column sets (implements [cgcsim experiment NAME --metrics-out
    FILE]). *)

val set_quick : bool -> unit
(** Shrink every experiment's sweep for a fast smoke run (the [--fast]
    flag); default off.  Set it before the experiment starts. *)

val quick : unit -> bool
(** The current {!set_quick} value. *)

val par_map : 'a list -> ('a -> 'b) -> 'b list
(** [par_map items f] maps [f] over [items] on {!Cgc_cluster.Dpool}'s
    domains (sized by [--jobs]), returning results in item order
    regardless of completion order.  Each simulation owns its state (VM,
    machine, PRNG, event sink), so items never share mutable simulation
    state; metrics records made by {!collect} inside [f] are diverted to
    a per-item domain-local sink and spliced into the {!recorded}
    registry in item order, making the registry byte-identical to a
    serial run.  A nested [par_map] (called from inside an item) runs
    inline on the calling domain.  If any [f] raises, every remaining
    item still runs and the first exception is re-raised. *)

val specjbb :
  label:string ->
  gc:Cgc_core.Config.t ->
  ?warehouses:int ->
  ?heap_mb:float ->
  ?warmup_ms:float ->
  ?ms:float ->
  ?seed:int ->
  unit ->
  metrics
(** Warm up and measure a SPECjbb-like run (defaults: 8 warehouses, 64 MB,
    1500 ms warm-up, 4000 ms measured). *)

val pbob :
  label:string ->
  gc:Cgc_core.Config.t ->
  warehouses:int ->
  ?terminals:int ->
  ?heap_mb:float ->
  ?think_mean:int ->
  ?residency_at:int * float ->
  ?warmup_ms:float ->
  ?ms:float ->
  ?seed:int ->
  unit ->
  metrics

val specjbb_vm :
  label:string ->
  gc:Cgc_core.Config.t ->
  ?warehouses:int ->
  ?heap_mb:float ->
  ?warmup_ms:float ->
  ?ms:float ->
  ?seed:int ->
  ?trace:bool ->
  ?trace_ring:int ->
  unit ->
  metrics * Cgc_runtime.Vm.t
(** Like {!specjbb} but also returns the finished VM, and optionally
    arms the event sink ([trace], with [trace_ring] capacity) — for
    experiments that derive extra columns from the trace. *)

val pbob_vm :
  label:string ->
  gc:Cgc_core.Config.t ->
  warehouses:int ->
  ?terminals:int ->
  ?heap_mb:float ->
  ?think_mean:int ->
  ?residency_at:int * float ->
  ?warmup_ms:float ->
  ?ms:float ->
  ?seed:int ->
  ?trace:bool ->
  ?trace_ring:int ->
  unit ->
  metrics * Cgc_runtime.Vm.t

val analyse_trace :
  ?mmu_windows_ms:float list -> Cgc_runtime.Vm.t -> Cgc_prof.Analysis.t
(** Run the offline profiler over a finished traced VM's event stream. *)

val hdr : string -> unit
(** Print an experiment banner. *)
