(** Per-mutator collector state.

    Each mutator thread registered with the collector carries: a fixed
    root-slot array standing in for its stack (scanned conservatively,
    validated by the allocation bits, exactly as the paper's JVM scans
    stacks), its private allocation cache, and the per-cycle flags and
    counters the incremental collector needs. *)

type t = {
  tid : int;
  thread : Cgc_sim.Sched.thread;
  roots : int array;  (** stack slots; any int, conservatively filtered *)
  cache : Cgc_heap.Heap.cache;
  mutable stack_scanned : bool;  (** scanned during the current cycle? *)
  mutable alloc_slots : int;  (** cumulative slots allocated (monotonic) *)
  mutable trace_debt : int;
      (** tracing work assigned by the progress formula but not yet
          performed (packet shortage); carried into the next increment *)
}

val create : tid:int -> thread:Cgc_sim.Sched.thread -> stack_slots:int -> t

val root_get : t -> int -> int
val root_set : t -> int -> int -> unit
(** Plain stack-slot accesses — stacks are thread-private, so they bypass
    the weak-memory machinery. *)
