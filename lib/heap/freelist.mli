(** Size-segregated free list over heap chunks.

    Bitwise sweep rebuilds this list every collection cycle from the runs
    of unmarked memory it finds in the mark bit vector, so the list never
    needs incremental coalescing.  Chunks are binned by floor(log2 size)
    for near-O(1) allocation.  Remainders below 4 slots are abandoned
    ("dark matter") — the next sweep re-coalesces them. *)

type t

val create : unit -> t

val clear : t -> unit
(** Empty the list (start of a sweep rebuild). *)

val add : t -> addr:int -> size:int -> unit
(** Insert a free chunk.  Chunks smaller than 4 slots are dropped
    (counted as dark matter). *)

val alloc : t -> int -> int option
(** [alloc t size] carves exactly [size] slots, returning the address, or
    [None] when no chunk is large enough.  The remainder is re-binned. *)

val alloc_range : t -> min:int -> pref:int -> (int * int) option
(** Allocation-cache refill: return a chunk of at least [min] slots,
    splitting anything larger than [pref] down to [pref].  Returns
    [(addr, size)]. *)

val free_slots : t -> int
(** Total slots currently on the list. *)

val dark_matter : t -> int
(** Slots dropped since the last {!clear} because they were below
    4 slots. *)

val chunk_count : t -> int

val iter : t -> (addr:int -> size:int -> unit) -> unit
(** Iterate all chunks (diagnostics, tests). *)
