(** A SPECjbb2000-like workload: [warehouses] worker threads, each owning
    a private resident "database" sized so that the paper's reference
    configuration (8 warehouses) reaches 60% heap residency, doing
    order-processing-style transactions with no think time (SPECjbb is
    throughput-oriented and saturates the machine). *)

val base_profile : Txmix.profile

val spawn_warehouses :
  Cgc_runtime.Vm.t -> warehouses:int -> residency_at:int * float -> unit
(** Spawn the warehouse threads on a built VM — the step {!setup}
    performs — for callers that need a VM configuration {!setup} does not
    expose.  [residency_at] is as for {!setup}. *)

val setup :
  warehouses:int ->
  gc:Cgc_core.Config.t ->
  ?heap_mb:float ->
  ?ncpus:int ->
  ?seed:int ->
  ?trace:bool ->
  ?trace_ring:int ->
  ?residency_at:int * float ->
  unit ->
  Cgc_runtime.Vm.t
(** Build a VM and spawn the warehouse threads (not yet run).
    [residency_at] is [(warehouse_count, fraction)] — default [(8, 0.6)]:
    the per-warehouse resident set is sized so that running with
    [warehouse_count] warehouses fills [fraction] of the heap.
    [trace] arms the event-tracing sink (see {!Cgc_runtime.Vm.trace_json}). *)
