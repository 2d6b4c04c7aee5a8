(** A javac-like workload: a single-threaded compiler that builds a large
    AST per compilation unit (trees of small nodes), keeps the previous
    unit alive (symbol tables), and drops older units — 70% heap
    residency with a sawtooth of bulk deaths, on a uniprocessor with a
    single background collector thread (section 6.1). *)

val setup :
  gc:Cgc_core.Config.t ->
  ?heap_mb:float ->
  ?ncpus:int ->
  ?seed:int ->
  ?trace:bool ->
  ?trace_ring:int ->
  ?n_background:int ->
  unit ->
  Cgc_runtime.Vm.t

val run :
  gc:Cgc_core.Config.t ->
  ?heap_mb:float ->
  ?ncpus:int ->
  ?seed:int ->
  ?trace:bool ->
  ?trace_ring:int ->
  ?ms:float ->
  unit ->
  Cgc_runtime.Vm.t
(** Defaults: 25 MB heap, 1 CPU, 1 background thread, 4000 ms, and the
    VM's default event-ring capacity. *)
