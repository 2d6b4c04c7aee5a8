(** A work packet: a small bounded mark stack (the paper's packets hold up
    to 493 entries).

    Packet contents are written through the weak-memory system: a packet
    filled on one processor and consumed on another is only safe if the
    producer fenced before publishing it — that is the section 5.1
    protocol, enforced by {!Pool.put}.  The consumer needs no fence thanks
    to the data dependency on the packet pointer. *)

type t

val make : Cgc_smp.Machine.t -> capacity:int -> t

val count : t -> int

val is_empty : t -> bool
val is_full : t -> bool

val push : t -> int -> bool
(** [push p v] appends an entry; false if full. *)

val pop : t -> int option
(** Remove and return the newest entry, reading through the weak-memory
    system (a stale masked value can be returned in [Relaxed] mode when
    the producer failed to fence — that is the point). *)

val no_entry : int
(** Sentinel returned by {!pop_raw} on an empty packet ([min_int], which
    is never a heap address). *)

val pop_raw : t -> int
(** Allocation-free {!pop}: the popped entry, or {!no_entry} when the
    packet is empty.  The tracer drains packets one entry per simulated
    object scan, so the [Some] box per {!pop} was measurable. *)

val get_sc : t -> int -> int
(** [get_sc p i]: committed entry [i] ([0] oldest), bypassing
    store-buffer masking.  Unlike a mark stack, whose next entries are
    only known once the top is scanned, a packet holds the tracer's next
    objects in order: [Tracer.trace_until] reads entry
    [count p - prefetch_distance] here to prefetch that object's header
    and reference slots while the entries above it are popped.  Under
    Relaxed memory the committed entry may differ from what {!pop} will
    observe, which only wastes the hint. *)

val reverse : t -> unit
(** Reverse the entries in place: the order that popping every entry and
    pushing it back leaves.  The entries are rewritten as plain stores,
    so this is only allowed under SC memory, where a push records no
    weak-memory store ([Invalid_argument] otherwise). *)

val iter : t -> (int -> unit) -> unit
(** Iterate current entries (weak-memory aware reads), newest last. *)
