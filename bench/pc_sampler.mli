(** A host-CPU sampling profiler that sees instructions.

    A SIGPROF timer interrupts the process every [period_s] of CPU time
    (the kernel may round the period up to its tick), and a C handler on
    its own signal stack records the interrupted program counter.  After
    the window, {!resolve} maps each PC to a function and source line of
    this executable.  Linux on x86-64 or AArch64 only: it reads
    [/proc/self/maps] and needs binutils' [addr2line].

    Host-only: nothing it measures may enter a deterministic output. *)

val sample : period_s:float -> (unit -> 'a) -> 'a * int array * int
(** [sample ~period_s f] runs [f] with the sampler armed and returns its
    result, the PCs taken, oldest first, and how many samples were
    dropped because the buffer (2{^ 20} PCs) was full.  The signal stack
    is the calling thread's, so [f] should run on one domain. *)

type site =
  | Outside  (** a PC outside this executable's code: libc, the vDSO *)
  | Code of { func : string; file : string; line : int }
      (** [file] is as the debug information names it, and [line] is
          [0] when it has none. *)

val resolve : int array -> site array
(** [resolve pcs] gives each PC's site, in order.  Each distinct PC is
    resolved once, all by one [addr2line -f] run on the executable.
    Raises [Failure] if [addr2line] fails. *)
