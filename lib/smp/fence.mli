(** Fence-instruction accounting.

    Section 5 of the paper is about minimising memory-fence instructions
    on weak-ordering hardware: one fence per allocation-cache retirement
    (not per object), one per work packet returned to the pool (not per
    mark), and none in the write barrier (replaced by the card-table
    snapshot protocol).  This module counts fences per site so the
    ablation bench can compare the batched protocols against the naive
    per-operation placements. *)

type site =
  | Alloc_batch     (** one per retired allocation cache (section 5.2) *)
  | Packet_return   (** one per output packet returned to the pool (section 5.1) *)
  | Packet_defer    (** tracer-side fence before tracing a packet (section 5.2) *)
  | Card_snapshot   (** per-mutator fence forced by card cleaning (section 5.3) *)
  | Naive_alloc     (** ablation: one fence per object allocated *)
  | Naive_barrier   (** ablation: one fence per write barrier *)
  | Naive_mark      (** ablation: one fence per object marked/pushed *)
  | Other

type counters

val create : unit -> counters

val count : counters -> site -> unit

val get : counters -> site -> int

val total : counters -> int

val reset : counters -> unit

val site_name : site -> string
(** Stable dashed name, e.g. [alloc-batch]. *)

val site_index : site -> int
(** Stable small integer per site — the payload trace events carry.
    [docs/OBSERVABILITY.md] maps each index to its name. *)

val all_sites : site list
(** Every site, in {!site_index} order. *)
