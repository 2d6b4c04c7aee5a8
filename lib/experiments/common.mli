(** Shared plumbing for the paper-reproduction experiments.

    Every experiment runs one or more VMs with a warm-up window (so the
    L/M/Best estimators have converged, as the paper's steady-state
    measurements assume), extracts a {!metrics} record per run, renders
    the paper's tables/figures as text tables, and returns its records
    in the order it collected them. *)

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
(** Extract a {!metrics} record from a finished VM run. *)

val runs_schema : string
(** The [#schema=] tag on experiment CSV dumps: ["cgcsim-runs-v1"]. *)

val write_metrics_csv : metrics list -> string -> unit
(** [write_metrics_csv ms path] writes [ms] to [path] as CSV, one row
    per record, first line [#schema=cgcsim-runs-v1], so consumers can
    reject incompatible column sets (implements [cgcsim experiment NAME
    --metrics-out FILE]). *)

val set_quick : bool -> unit
(** Shrink every experiment's sweep for a fast smoke run (the [--fast]
    flag); default off.  Set it before the experiment starts. *)

val quick : unit -> bool
(** The current {!set_quick} value. *)

val par_map : 'a list -> ('a -> 'b) -> 'b list
(** [par_map items f] is [List.map f items] run by
    {!Cgc_cluster.Dpool.map} on the [--jobs] domains, so results come
    back in item order whichever domain ran what.  Each simulation owns
    its state (VM, machine, PRNG, event sink), so items never share
    mutable simulation state. *)

val specjbb :
  label:string ->
  gc:Cgc_core.Config.t ->
  ?warehouses:int ->
  ?warmup_ms:float ->
  ?ms:float ->
  ?trace:bool ->
  ?trace_ring:int ->
  unit ->
  metrics * Cgc_runtime.Vm.t
(** Warm up and measure a SPECjbb-like run on
    {!Cgc_workloads.Specjbb.setup}'s 64 MB heap (defaults: 8 warehouses,
    1500 ms warm-up, 4000 ms measured), returning its record and the
    finished VM.  [trace] arms
    the event sink, with [trace_ring] capacity, for experiments that
    derive extra columns from the trace. *)

val pbob :
  label:string ->
  gc:Cgc_core.Config.t ->
  warehouses:int ->
  ?heap_mb:float ->
  ?think_mean:int ->
  ?residency_at:int * float ->
  ?warmup_ms:float ->
  ?ms:float ->
  ?trace:bool ->
  ?trace_ring:int ->
  unit ->
  metrics * Cgc_runtime.Vm.t
(** Like {!specjbb} for {!Cgc_workloads.Pbob.setup} (defaults: 96 MB,
    1500 ms warm-up, 5000 ms measured). *)

val analyse_trace : Cgc_runtime.Vm.t -> Cgc_prof.Analysis.t
(** Run the offline profiler over a finished traced VM's event stream. *)

val hdr : string -> unit
(** Print an experiment banner. *)
