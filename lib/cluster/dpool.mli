(** A persistent pool of OCaml 5 domains with work-stealing deques.

    The domains are spawned {e once} and fed batches of jobs, so a
    16-shard cluster campaign (or a bench matrix fanning out dozens of
    cells) pays for domain creation once, not per call.  A pool keeps
    [domains - 1] worker domains parked on a condition variable between
    batches; {!run} distributes a batch's job indices round-robin over
    per-worker {!Deque}s, wakes everyone, and participates from the
    calling domain.  A worker that drains its own deque steals from its
    peers' heads (the ebsl [spmc_queue]/[scheduler] idiom), so a batch
    of uneven jobs — say, shards whose GC cycles diverge — finishes at
    the speed of the slowest {e job}, not the slowest {e worker
    share}.

    Host-side parallelism only: jobs must not share mutable simulation
    state (every simulation in this repo is a self-contained value), and
    the pool guarantees nothing about execution order — determinism
    comes from jobs being independent and results being indexed.

    A job that calls back into {!run} or {!map} on any pool (nested
    parallelism) executes the inner batch inline on the calling domain
    — the pool never deadlocks on re-entry, it just declines to
    parallelise the inner level. *)

type t

val create : domains:int -> t
(** A pool that runs batches on [max 1 domains] domains: the caller of
    {!run} plus [domains - 1] spawned workers (so [domains = 1] spawns
    nothing and {!run} degenerates to a serial loop). *)

val shutdown : t -> unit
(** Park, wake and join the worker domains.  Idempotent.  Calling
    {!run} after [shutdown] raises [Invalid_argument]. *)

val run : t -> n:int -> (int -> unit) -> unit
(** [run t ~n f] executes [f 0 .. f (n-1)], each exactly once, across
    the pool's domains, returning when all have finished.  If one or
    more jobs raise, the remaining jobs still run and the first
    exception (in completion order) is re-raised in the caller. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f items] is {!run} writing [f items.(i)] into slot [i] of
    the result — item order is preserved regardless of which domain
    ran what. *)

(** {2 The global pool}

    One process-wide pool shared by [Common.par_map], the benchmark
    matrix and the cluster layer, resized by [--jobs]. *)

val set_size : int -> unit
(** Resize the global pool (joining the old workers if the size
    changes).  Clamped to at least 1; the initial size is 1. *)

val global : unit -> t
(** The global pool at its current size. *)
