(** Batches of indexed jobs on OCaml 5 domains.

    A parallel batch spawns its domains, and the caller and those
    domains take job indices from one shared atomic counter, so an
    uneven batch finishes at the speed of its slowest {e job}.
    Host-side parallelism only: jobs must not share mutable simulation
    state (every simulation in this repo is a self-contained value), and
    nothing about execution order is guaranteed — determinism comes from
    jobs being independent and results being indexed.

    A job that calls {!run} or {!map} again (nested parallelism) runs
    the inner batch serially on its own domain. *)

val set_size : int -> unit
(** The number of domains a batch runs on, the caller's included (the
    [--jobs] flag).  Clamped to at least 1; the initial size is 1, at
    which every batch is a serial loop that spawns nothing. *)

val run : n:int -> (int -> unit) -> unit
(** [run ~n f] executes [f 0 .. f (n-1)], each exactly once, on
    [min size n] domains, returning when all have finished.  If one or
    more jobs raise, the remaining jobs still run, and the first
    exception is re-raised in the caller: first in completion order on
    a parallel batch, first in index order on a serial one. *)

val map : ('a -> 'b) -> 'a array -> 'b array
(** [map f items] is {!run} writing [f items.(i)] into slot [i] of the
    result, so item order is preserved whichever domain ran what. *)
