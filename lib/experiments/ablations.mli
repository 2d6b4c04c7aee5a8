(** Ablation studies of the design choices the paper calls out, each
    printing its table and returning the runs' records in the order it
    collected them. *)

val fence_batching : unit -> Common.metrics list
(** Batched fences (section 5) against one fence per operation. *)

val card_passes : unit -> Common.metrics list
(** One concurrent card-cleaning pass against two (section 2.1,
    footnote 2). *)

val lazy_sweep : unit -> Common.metrics list
(** Sweep in the pause against lazy sweep (section 7 future work). *)

val stealing : unit -> Common.metrics list
(** Work packets against work-stealing mark stacks for the parallel STW
    mark (section 4.4). *)

val compaction : unit -> Common.metrics list
(** Incremental compaction off and on (section 2.3). *)

val itanium : unit -> Common.metrics list
(** The section 6.1 weak-ordering run: STW and CGC with the store buffers
    reordering, plus the tracer-corruption and reachability checks. *)
