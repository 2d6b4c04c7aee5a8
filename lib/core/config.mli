(** Collector configuration.

    The defaults mirror the paper's experimental setup (section 6):
    tracing rate 8.0, 1000 work packets of 493 entries each, 4 low-priority
    background threads, a single concurrent card-cleaning pass, and
    stop-the-world phases parallelised over all processors.

    Only the values some caller varies are fields.  The paper's fixed
    parameters are constants beside their one reader: Kmax, the
    corrective term and the estimators in {!Metering}, the cache and
    large-object sizes, stop-the-world workers and evacuation area in
    {!Collector}, and the nursery share in [Cgc_gen.Gen]. *)

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
  n_packets : int;
  packet_capacity : int;
  n_background : int;  (** low-priority background tracing threads *)
  card_passes : int;  (** concurrent card-cleaning passes (1; footnote 2 suggests 2) *)
  lazy_sweep : bool;  (** section 7 extension: sweep outside the pause *)
  load_balance : load_balance;
  defer_protocol : bool;  (** section 5.2 allocation-bit check (tests disable) *)
  compaction : bool;
      (** incremental compaction (section 2.3): evacuate one area per
          cycle inside the pause, with in-pointers tracked during marking *)
  faults : Cgc_fault.Fault.t;
      (** deterministic fault injector (default {!Cgc_fault.Fault.disabled}).
          A VM's config holds the template each VM arms its own copy
          from; the collector's config holds that copy.  See
          [docs/FAULTS.md] for the scenario catalogue *)
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

val all_modes : mode list
(** Every mode, in the order the CLI lists them: cgc, gen, stw. *)

val mode_name : mode -> string
(** The [--gc] axis spelling of a mode, e.g. [cgc]. *)

val mode_of_name : string -> mode option
(** Inverse of {!mode_name}. *)

val validate : t -> (unit, string) result
(** The one legality check: rejects compaction with lazy sweep or with
    stealing, gen mode with compaction or lazy sweep, and stealing
    outside stw mode (only the stop-the-world mark steals).  The error
    names the first rejected combination.  [Collector.create] raises
    [Invalid_argument] with it, and the CLI reports it as a usage
    error. *)
