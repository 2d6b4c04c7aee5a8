(** Incremental compaction (section 2.3, after Ben-Yitzhak et al.,
    ISMM 2002).

    Full compaction of a large heap is incompatible with short pauses, so
    the collector instead {e evacuates} one small area per collection
    cycle:

    {ol
    {- before the concurrent mark starts, an evacuation area (a fixed
       fraction of the heap, rotating each cycle) is chosen;}
    {- during marking — concurrent tracing, card-cleaning rescans and the
       final stop-the-world marking alike — every reference discovered
       that points {e into} the area is recorded in a remembered set;
       objects in the area referenced from thread stacks are {e pinned}
       (the stacks are scanned conservatively, so those slots cannot be
       rewritten);}
    {- after sweep, still inside the pause, the live unpinned objects of
       the area are copied out, a forwarding table is built, the
       remembered slots (and the precise global roots) are fixed up, and
       the vacated ranges are returned to the free list.}}

    Stale remembered entries are harmless: fix-up re-reads each recorded
    slot and rewrites it only if it still holds a pointer into the area. *)

type t

val create : Cgc_heap.Heap.t -> t

val choose_area : t -> cycle:int -> fraction:float -> unit
(** Activate compaction for this cycle: select the evacuation area (the
    heap is divided into [1/fraction] areas; [cycle] rotates through
    them) and clear the remembered set, forwarding and pin tables. *)

val active : t -> bool

val area : t -> int * int
(** [(lo, hi)] of the current evacuation area; [(0, 0)] when inactive. *)

val in_area : t -> int -> bool

val record_ref : t -> parent:int -> idx:int -> child:int -> unit
(** Remember that reference slot [idx] of [parent] held a pointer to
    [child] inside the area when it was scanned.  (Slots beyond the
    packable index range — absurdly wide objects — fall back to pinning
    the child instead.) *)

val pin : t -> int -> unit
(** Pin an area object referenced from a conservatively-scanned stack:
    it must not move. *)

val pinned_count : t -> int

val evacuate : t -> globals:int array -> int
(** Run the evacuation (call after sweep, world stopped): copy live
    unpinned area objects out, fix up remembered slots and global roots,
    free the vacated ranges.  Returns the number of slots evacuated.
    Charges copy and fix-up costs.  Deactivates the compactor. *)

val evacuated_objects : t -> int
(** Cumulative count across cycles. *)

val fixups : t -> int
(** Cumulative remembered-slot rewrites. *)

val forward : t -> int -> int
(** [forward t addr] is the post-evacuation address of [addr] (identity
    when it did not move).  Exposed for tests. *)
