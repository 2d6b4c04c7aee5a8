(** Batches of indexed jobs on OCaml 5 domains.

    A parallel batch spawns its domains, and the caller and those
    domains take job indices from one shared atomic counter, so an
    uneven batch finishes at the speed of its slowest {e job}.
    Host-side parallelism only: jobs must not share mutable simulation
    state (every simulation in this repo is a self-contained value), and
    nothing about execution order is guaranteed — determinism comes from
    jobs being independent and results being indexed.

    A job that calls {!map} again (nested parallelism) runs the inner
    batch serially on its own domain. *)

val set_size : int -> unit
(** The number of domains a batch runs on, the caller's included (the
    [--jobs] flag).  Clamped to at least 1; the initial size is 1, at
    which every batch is a serial loop that spawns nothing. *)

val map : ('a -> 'b) -> 'a array -> 'b array
(** [map f items] runs [f] on each item exactly once, on
    [min size n] domains for [n] items, and returns when all have
    finished, with [f items.(i)] in slot [i] of the result whichever
    domain ran it.  If one or more jobs raise, the remaining jobs still
    run, and the first exception is re-raised in the caller: first in
    completion order on a parallel batch, first in index order on a
    serial one. *)
