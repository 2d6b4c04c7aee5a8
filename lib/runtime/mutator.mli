(** The mutator-side API — what "application code" uses.

    A mutator owns a root array (its simulated stack, scanned
    conservatively by the collector), a private allocation cache, and a
    deterministic PRNG stream.  All reference stores go through the
    collector's card-marking write barrier. *)

type t

val make :
  vm_sched:Cgc_sim.Sched.t ->
  coll:Cgc_core.Collector.t ->
  mctx:Cgc_core.Mctx.t ->
  rng:Cgc_util.Prng.t ->
  on_tx:(unit -> unit) ->
  t
(** Used by {!Vm.spawn_mutator}; applications normally never call this. *)

val alloc : t -> nrefs:int -> size:int -> int
(** Allocate an object of [size] slots whose first [nrefs] field slots are
    references (initialised to null).  May perform incremental GC work or
    stop the world.  @raise Cgc_core.Collector.Out_of_memory. *)

val set_ref : t -> int -> int -> int -> unit
(** [set_ref m parent i child] stores through the write barrier. *)

val get_ref : t -> int -> int -> int

val root_set : t -> int -> int -> unit
(** Store any value (reference or not — the scan is conservative) into a
    stack slot. *)

val root_get : t -> int -> int

val n_roots : t -> int

val work : t -> int -> unit
(** Consume CPU cycles (application compute). *)

val think : t -> int -> unit
(** Sleep without using a CPU (user think time / IO wait) — this is what
    creates the processor idle time the background GC threads soak up. *)

val tx_done : t -> unit
(** Mark a completed transaction: bumps the throughput counter and spends
    any accumulated cycle debt. *)

val rng : t -> Cgc_util.Prng.t

val stopped : t -> bool
(** The simulation asked threads to wind down. *)

val now_cycles : t -> int
(** Current simulated time in cycles (for workload-side latency
    measurement). *)

val collector : t -> Cgc_core.Collector.t
