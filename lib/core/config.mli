(** Collector configuration.

    The defaults mirror the paper's experimental setup (section 6):
    tracing rate 8.0, 1000 work packets of 493 entries each, 4 low-priority
    background threads, a single concurrent card-cleaning pass, and
    stop-the-world phases parallelised over all processors. *)

type mode =
  | Stw  (** the baseline: parallel stop-the-world mark-sweep only *)
  | Cgc  (** the paper's parallel, incremental, mostly-concurrent collector *)
  | Gen
      (** the generational front end: a bump-allocated nursery with
          copying minor collections in front of the concurrent (Cgc)
          major collector *)

type load_balance =
  | Packets   (** the paper's work-packet mechanism (section 4) *)
  | Stealing  (** Endo-style private mark stacks with stealing (section 4.4) *)

type t = {
  mode : mode;
  k0 : float;  (** desired allocator tracing rate K0 (the "tracing rate") *)
  kmax_factor : float;  (** Kmax = kmax_factor * K0; the paper uses 2 *)
  corrective : float;  (** the corrective term C applied when K > K0 *)
  ewma_alpha : float;  (** smoothing for the L, M and Best estimators *)
  n_packets : int;
  packet_capacity : int;
  n_background : int;  (** low-priority background tracing threads *)
  gc_workers : int;  (** parallel workers for the stop-the-world phases *)
  cache_slots : int;  (** preferred allocation-cache size, in slots *)
  large_object_slots : int;  (** objects at least this big bypass the cache *)
  card_passes : int;  (** concurrent card-cleaning passes (1; footnote 2 suggests 2) *)
  lazy_sweep : bool;  (** section 7 extension: sweep outside the pause *)
  load_balance : load_balance;
  initial_l_fraction : float;  (** initial L estimate, fraction of heap *)
  initial_m_fraction : float;  (** initial M estimate, fraction of heap *)
  bg_chunk : int;  (** slots traced per background-thread scheduling chunk *)
  defer_protocol : bool;  (** section 5.2 allocation-bit check (tests disable) *)
  compaction : bool;
      (** incremental compaction (section 2.3): evacuate one area per
          cycle inside the pause, with in-pointers tracked during marking *)
  evac_fraction : float;  (** fraction of the heap evacuated per cycle *)
  nursery_fraction : float;
      (** [Gen] mode: fraction of the arena carved off as the nursery
          (card-aligned, taken from the top of the heap; the old space
          shrinks by the same amount, so heap budgets stay comparable
          across the [--gc] axis) *)
  faults : Cgc_fault.Fault.t;
      (** deterministic fault injector (default {!Cgc_fault.Fault.disabled});
          see [docs/FAULTS.md] for the scenario catalogue *)
  verify : bool;
      (** run the {!Verify} heap invariant checker at every cycle
          boundary (host-side, uncharged; raises
          {!Verify.Invariant_violation} on corruption) *)
}

val default : t
(** CGC with the paper's parameters. *)

val stw : t
(** The stop-the-world baseline. *)

val gen : t
(** The generational front end over the concurrent major collector. *)

val mode_name : mode -> string
(** ["stw"], ["cgc"] or ["gen"] — the [--gc] axis spelling. *)

val mode_of_name : string -> mode option
(** Inverse of {!mode_name}. *)

val validate : t -> (unit, string) result
(** The one legality check: rejects compaction with lazy sweep or with
    stealing, gen mode with compaction or lazy sweep, and stealing
    outside stw mode (only the stop-the-world mark steals).  The error
    names the first rejected combination.  [Collector.create] raises
    [Invalid_argument] with it, and the CLI reports it as a usage
    error. *)
