(** A javac-like workload: a single-threaded compiler that builds a large
    AST per compilation unit (trees of small nodes), keeps the previous
    unit alive (symbol tables), and drops older units — 70% heap
    residency with a sawtooth of bulk deaths, on a uniprocessor
    (section 6.1).  The collector config, background threads included,
    is used as given; the paper's single background thread is set by the
    javac experiment. *)

val setup :
  gc:Cgc_core.Config.t ->
  ?heap_mb:float ->
  ?ncpus:int ->
  ?seed:int ->
  ?trace:bool ->
  ?trace_ring:int ->
  unit ->
  Cgc_runtime.Vm.t
(** Build the VM and spawn the compiler thread (not yet run).  Defaults:
    25 MB heap, 1 CPU, and the VM's default event-ring capacity. *)
