(** A pBOB-like workload (the tunable IBM benchmark SPECjbb is based on),
    in "autoserver" mode: [warehouses * terminals_per_warehouse] threads,
    each warehouse database shared by its terminals through the global
    roots, and exponential think times that leave the processors partly
    idle — the conditions under which the background tracing threads do
    real work and thousands of threads compete for work packets. *)

val setup :
  warehouses:int ->
  gc:Cgc_core.Config.t ->
  ?terminals:int ->
  ?heap_mb:float ->
  ?ncpus:int ->
  ?seed:int ->
  ?trace:bool ->
  ?trace_ring:int ->
  ?think_mean:int ->
  ?residency_at:int * float ->
  unit ->
  Cgc_runtime.Vm.t
(** Defaults: 25 terminals per warehouse (the paper's figure 2 setup),
    256 MB heap, 4 CPUs, think time 30 ms, and residency scaled so that
    80 warehouses reach 82% base occupancy — around 90% once floating
    garbage is added, matching the paper's figure. *)
