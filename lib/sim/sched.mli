(** Discrete-event simulation of an N-way shared-memory multiprocessor.

    Simulated threads are OCaml 5 effect-handler coroutines multiplexed
    over [ncpus] simulated processors.  Each processor has its own clock;
    the scheduler always advances the processor that is furthest behind,
    so cross-processor interleaving happens at (at most) quantum
    granularity.  A thread expresses the passage of time by calling
    {!consume} (burn CPU cycles on the running slice's {!clock}),
    {!sleep} (block without using a CPU — think time / IO), {!poll}
    (sleep until a host-side condition holds at a wake-up) and {!yield}.

    Threads are kept in a table indexed by id, and every queue (the
    three runqueues, the sleep queue) holds ids and times in int arrays,
    so no queue operation stores a pointer.

    Three priority levels implement the paper's thread taxonomy:
    - [High]: stop-the-world GC worker threads,
    - [Normal]: mutators (and the incremental tracing they perform
      during allocation, charged to their own CPU time),
    - [Low]: the concurrent collector's background tracing threads, which
      only run when a processor would otherwise be idle.

    {!stop_the_world} suspends scheduling of [Normal] and [Low] threads;
    only [High] threads run until {!restart_world}.  The elapsed simulated
    time between stop and restart is recorded as a pause. *)

type t

type prio = High | Normal | Low

type thread
(** Handle on a simulated thread. *)

val create : ?quantum:int -> ncpus:int -> unit -> t
(** [quantum] is the preemption slice in cycles (default 110_000 — about
    0.2 ms at 550 MHz, a compromise between OS realism and interleaving
    granularity).  Every VM runs the default; unit tests shrink it to
    force interleaving.  Each slice is charged
    {!Cgc_smp.Cost.default}'s context-switch cost. *)

val clock : t -> Cgc_util.Clock.t
(** The running slice, which the VM's machine, event sink and fault
    injector read; only the scheduler writes it. *)

val ncpus : t -> int

val spawn : t -> name:string -> prio:prio -> (unit -> unit) -> thread
(** Create a thread; it becomes runnable immediately.  The body runs
    inside the simulation and may use {!consume}/{!sleep}/{!yield} and
    spawn further threads. *)

val run : t -> until:int -> unit
(** Drive the simulation until the clock passes [until] cycles or no
    thread remains alive or runnable.  Must not be called from inside a
    simulated thread.

    Each iteration takes the processor whose clock [tm] is furthest
    behind and either resumes a thread on it, resolves an unready
    {!poll} or advances it while idle.  A quiet stretch — no thread
    resumed since the last hook walk (see {!on_advance_due}), the world
    not stopped, every runqueue empty — is run by a tight loop that makes
    the same iterations, in the same order and with the same effects,
    while no hook is due: idle advances, and wake-ups of a lone
    [Normal]-priority poller whose predicate is false.  Every other
    iteration goes through the full loop. *)

(** {2 Operations usable only from inside a simulated thread} *)

val consume : t -> int -> unit
(** Burn simulated CPU cycles on the running thread of [t]
    ({!Cgc_util.Clock.spend}): a charge inside the quantum is one field
    update; one that uses the quantum up preempts the thread. *)

val sleep : int -> unit
(** Block for the given number of cycles without occupying a CPU. *)

val yield : unit -> unit
(** Relinquish the CPU; the thread stays runnable. *)

val poll : int -> ready:(unit -> bool) -> unit
(** [poll n ~ready] sleeps [n] cycles, repeatedly, until [ready ()]
    holds at a wake-up, then returns.  It is the loop
    [while not (ready ()) do sleep n done] entered after one [sleep n],
    with its wake-ups resolved by {!run} itself: at each wake-up the
    scheduler dispatches the thread as usual and evaluates [ready]; when
    it is false it records exactly what the resumed loop would record (a
    slice of no cycles, the CPU clock advanced by the context-switch
    cost, the next wake-up [n] cycles after the dispatch, the same
    sleep-queue push), without resuming the thread.  Every scheduler
    iteration still happens, and every advance hook is called when it
    would have been (see {!on_advance_due}).

    The contract that makes the two equal: [ready] reads host state only
    (a server's request queue, {!stop_requested}).  It charges no cycles,
    draws no PRNG value, reads no simulated memory, emits no event and
    does not call {!current} or perform an effect.  [Invalid_argument]
    if [n <= 0]. *)

val now : t -> int
(** Current simulated time in cycles (usable from inside or outside). *)

val current : t -> thread
(** The thread performing the call. *)

val stop_the_world : t -> unit
(** Request that only [High]-priority threads be scheduled.  Records the
    pause start.  The calling thread keeps running regardless of its
    priority (it is the collector's initiator). *)

val restart_world : t -> int
(** End the stop-the-world window; returns the pause length in cycles. *)

val world_stopped : t -> bool

val thread_id : thread -> int
val thread_cycles : thread -> int
(** Total CPU cycles this thread has consumed in its finished slices. *)

val request_stop : t -> unit
(** Cooperative shutdown flag for long-running threads (read it with
    {!stop_requested}). *)

val stop_requested : t -> bool

val idle_cycles : t -> int
(** Total processor-idle cycles accumulated so far (all CPUs). *)

val busy_cycles : t -> int
(** Total cycles consumed by threads (all CPUs). *)

val on_advance_due : t -> (int -> int) -> unit
(** [on_advance_due t f] installs an advance hook: [f tm] is called with
    the current time [tm] at scheduler iterations, on the host side
    (outside any simulated thread), and returns the earliest time at
    which it must be called again.  Hooks accumulate; {!run} calls all
    of them, in installation order (a walk), at an iteration when
    - (a) it is the first of a {!run} call, or the first since a hook
      was installed;
    - (b) a thread has been resumed since the last walk;
    - (c) [tm] has reached the smallest time the last walk returned;
    - (d) it is about to resume a thread: a walk skipped at the
      iteration's start is made after the thread is picked and before
      it runs;
    and, when the last iteration of a {!run} call skipped its walk, once
    more at that iteration's time before {!run} returns.

    The contract: a call skipped at an iteration where none of (a) to
    (d) holds must change nothing.  That holds when the hook reads only
    host state that threads change or that changes only at its own due
    times, changes what a {!poll} predicate or a later hook reads only
    at its due times, and reads no runqueue (a late walk runs after the
    pick).  Integrals over time qualify when the sum of the skipped
    pieces lands where the pieces would have.  A hook must not consume
    simulated time or call {!current}. *)

val on_advance : t -> (int -> unit) -> unit
(** [on_advance t f] installs a hook that is due at every iteration, so
    it is called at each one, as {!on_advance_due} describes: used to
    drain due weak-memory stores and by host-time instrumentation.  A
    scheduler with such a hook never runs a quiet stretch. *)

(** {2 Thread introspection (for the profiler's sampler)} *)

type tstate = Runnable | Running | Sleeping | Dead

val threads : t -> thread list
(** Every thread ever spawned, in spawn order (including dead ones). *)

val iter_threads : t -> (thread -> unit) -> unit
(** Apply a function to every thread ever spawned, in unspecified order,
    without materialising the list {!threads} builds — for probes that
    only count. *)

val thread_state : thread -> tstate
val thread_prio : thread -> prio

val debug_cpu_clocks : t -> int array
(** Test hook: a copy of every processor's clock, by processor. *)

val debug_queues_clean : t -> bool
(** Test hook for the scheduler's retention invariant: [true] iff no
    runqueue or sleep-queue entry holds a dead thread's id, and no dead
    thread keeps a continuation or a poll predicate — i.e. a finished
    thread pins none of the memory its stack or its predicate's closure
    reaches, and can never be re-dispatched.  O(threads + queue
    lengths); never used on the hot path. *)
