(** The simulated heap arena and object model.

    Memory is a run of 8-byte {e slots}, held as 64-bit words in one
    zero-filled [Bytes] block that the host GC never scans; an
    {e address} is a slot index.  An object occupies [size] contiguous
    slots: one header slot followed by [nrefs] reference slots (each
    holding an object address, [0] meaning null — address 0 is never
    handed out) and then scalar slots.  The header packs [size] and
    [nrefs].

    All slot accesses go through the {!Cgc_smp.Weakmem} system so the
    weak-ordering races of section 5 are observable in [Relaxed] mode.
    Freed memory keeps its old contents, as on real hardware — tracing a
    dead or not-yet-published object reads stale garbage, which is exactly
    what the allocation-bit protocol must guard against. *)

type t

val create : Cgc_smp.Machine.t -> nslots:int -> t
(** A heap of [nslots] slots ([8 * nslots] simulated bytes).  Slot 0 is
    reserved so that address 0 can mean null. *)

val slots_per_card : int
(** 64 slots = the paper's 512-byte cards. *)

val card_of_addr : int -> int

(** {2 Raw slot access (weak-memory aware)} *)

val read_slot : t -> int -> int
(** Read a slot as observed by the calling thread's processor. *)

val write_slot : t -> int -> int -> unit

val read_slot_sc : t -> int -> int
(** Read the committed value directly, bypassing store-buffer masking.
    Only for tests and diagnostics. *)

(** {2 Object model} *)

val write_header : t -> int -> size:int -> nrefs:int -> unit
(** Store the header at [addr]; does {e not} clear the field slots. *)

val clear_fields : t -> int -> nrefs:int -> unit
(** Null out the [nrefs] reference slots (a freshly allocated object must
    never expose stale references as valid pointers to the program —
    though an unfenced remote observer may still see stale memory). *)

val size_of : t -> int -> int
(** Decode the object size from the header at [addr]. *)

val nrefs_of : t -> int -> int

val header_valid : t -> int -> bool
(** Whether the header at [addr] decodes to a plausible object (size
    within the heap, nrefs <= size-1).  Used to detect the section 5.2
    anomaly when the protocol is deliberately disabled in tests. *)

val header_ok : t -> int -> int -> bool
(** [header_ok t addr h]: {!header_valid}'s test applied to a header
    word [h] already read from [addr] with {!read_slot}, for a caller
    that decodes validity, size and nrefs from one load. *)

val decode_size : int -> int
(** The size field of a header word. *)

val decode_nrefs : int -> int
(** The nrefs field of a header word. *)

(** {2 Committed-state accessors}

    These bypass store-buffer masking and need no running simulated
    thread; they are for host-side verifiers, sweeping (which runs after
    a global synchronisation) and tests. *)

val header_valid_sc : t -> int -> bool
val size_of_sc : t -> int -> int
val nrefs_of_sc : t -> int -> int
val ref_get_sc : t -> int -> int -> int

val ref_get : t -> int -> int -> int
(** [ref_get t addr i] reads reference slot [i] of the object at [addr]. *)

val ref_set_raw : t -> int -> int -> int -> unit
(** Store into a reference slot {e without} any write barrier.  The
    collector's write barrier lives in [Cgc_core.Collector]; mutators go
    through that. *)

val in_heap : t -> int -> bool
(** Whether [addr] is a plausible object address (within bounds, not the
    reserved slot). *)

val prefetch : t -> int -> unit
(** [prefetch t addr] hints the host CPU to start loading the 64-byte
    cache line that holds slot [addr] and the line after it, which
    between them hold every slot of an object of up to 9 slots whose
    header is at [addr]: two prefetch instructions in a C stub declared
    [[@@noalloc]] and called directly, the second issued only when its
    line starts inside the arena's block.  It reads no simulated state and draws
    nothing from the weak-memory PRNG, so it changes no output, only
    host time.  [addr] must satisfy {!in_heap}. *)
