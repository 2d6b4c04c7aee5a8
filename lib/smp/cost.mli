(** Cycle cost model for the simulated multiprocessor.

    All durations in the simulator are integer {e cycles}.  The model is
    loosely calibrated to the paper's 4-way 550 MHz Pentium III server:
    [cycles_per_ms = 550_000], a fence is a multi-cycle instruction, a
    compare-and-swap costs tens of cycles, tracing costs are per-object
    plus per-slot, and bitwise sweep is proportional to mark-bit words
    scanned.  Absolute numbers are a model; experiments report shapes and
    ratios, which depend only on the relative costs. *)

type t = {
  cycles_per_ms : int;  (** simulated clock frequency, cycles per millisecond *)
  fence : int;          (** memory fence (sync / mfence) *)
  cas : int;            (** compare-and-swap *)
  dispatch : int;       (** scheduler context-switch overhead *)
  alloc_obj : int;      (** allocation fast path, per object *)
  alloc_slot : int;     (** object initialisation, per 8-byte slot *)
  cache_refill : int;   (** allocation-cache refill slow path (free-list work) *)
  trace_obj : int;      (** tracing, per object visited *)
  trace_slot : int;     (** tracing, per slot scanned *)
  sweep_word : int;     (** bitwise sweep, per 62 slots scanned *)
  sweep_chunk : int;    (** free-list insertion, per free chunk found *)
  card_scan : int;      (** card cleaning, per card scanned (fixed part) *)
  card_probe : int;     (** card-table scan for dirty cards, per card probed *)
  stack_slot : int;     (** conservative stack scan, per stack slot *)
  write_barrier : int;  (** card-marking write barrier, excluding any fence *)
  packet_op : int;      (** work-packet get/put bookkeeping, excluding the CAS *)
}

val default : t

val ms_of_cycles : t -> int -> float
(** Convert a cycle count to simulated milliseconds. *)

val cycles_of_ms : t -> float -> int
