(** The global work-packet pool with occupancy-classified sub-pools.

    Section 4 of the paper: the pool is split into an {e Empty} sub-pool,
    a {e Non-empty} sub-pool (packets under 50% full) and an
    {e Almost-full} sub-pool (50% and up, including full), plus the
    {e Deferred} sub-pool added in section 5.2 for packets holding objects
    whose allocation bits were not yet visible.

    Key properties implemented here:
    {ul
    {- input and output packets are separate; threads compete for input
       packets from the highest-occupancy sub-pool available, and take
       output packets from the lowest, which is what load-balances;}
    {- each sub-pool is a CAS-accessed list with an associated packet
       counter, also CAS-updated; every successful get/put costs two
       compare-and-swaps, which the Table 4 "cost" metric counts;}
    {- termination is detected when the Empty sub-pool's counter equals
       the total number of packets (section 4.3) — correct because getters
       acquire input before output and replacers get-new-before-put-old;}
    {- a fence is executed before a non-empty packet is returned to the
       pool (section 5.1), so consumers on other processors see its
       contents; consumers need no fence (address dependency).}} *)

type t

val create :
  ?fence_on_put:bool ->
  ?naive_mark_fence:bool ->
  ?faults:Cgc_fault.Fault.t ->
  Cgc_smp.Machine.t ->
  n_packets:int ->
  capacity:int ->
  t
(** [fence_on_put] (default true) can be disabled to demonstrate the
    section 5.1 race in relaxed-memory tests.  [naive_mark_fence] (default
    false) instead fences on {e every} push, for the fence-batching
    ablation.  [faults] (default {!Cgc_fault.Fault.disabled}) makes
    {!get_input}/{!get_output} answer [None] during injected packet
    starvation windows (still charging the probe). *)

val machine : t -> Cgc_smp.Machine.t

val naive_mark_fence : t -> bool
(** Whether every push fences (the ablation [create] option). *)

val total : t -> int

val get_input : t -> Packet.t option
(** A packet with tracing work, from the fullest available sub-pool. *)

val get_output : t -> Packet.t option
(** A packet with room, preferring empty packets. *)

val put : t -> Packet.t -> unit
(** Return a packet to the sub-pool matching its occupancy, fencing first
    if it is non-empty (per [fence_on_put]). *)

val put_deferred : t -> Packet.t -> unit
(** Park a packet of not-yet-safe objects in the Deferred sub-pool. *)

val recycle_deferred : t -> int
(** Move every deferred packet back to its occupancy sub-pool so its
    objects get another chance to be traced; returns how many packets
    moved. *)

val deferred_count : t -> int

val max_deferred : t -> int
(** High-water mark of {!deferred_count} since the last
    {!reset_watermarks} — how deep the section 5.2 deferral got. *)

val push : t -> Packet.t -> int -> bool
(** Push through the pool so the ablation [naive_mark_fence] policy can
    fence per entry and the entry watermark stays accurate.  Same result
    as {!Packet.push}. *)

val pop : t -> Packet.t -> int option
(** Pop through the pool (keeps the entry watermark accurate). *)

val no_entry : int
(** Sentinel returned by {!pop_raw}; see {!Packet.no_entry}. *)

val pop_raw : t -> Packet.t -> int
(** Allocation-free {!pop}: the entry, or {!no_entry} when the packet is
    empty.  Used by the tracer's drain loops, which pop one entry per
    simulated object and were paying a [Some] box each time. *)

val terminated : t -> bool
(** Empty-pool counter equals the total packet count: no tracing work
    exists anywhere and no thread holds a non-empty packet. *)

val counts : t -> int * int * int * int
(** (empty, nonempty, almost_full, deferred) counter values. *)

type occupancy = {
  occ_empty : int;
  occ_nonempty : int;
  occ_almost_full : int;
  occ_deferred : int;
  occ_in_use : int;
  occ_entries : int;
}
(** One coherent snapshot of the pool's occupancy, by sub-pool plus the
    in-use and total-entry gauges. *)

val occupancy : t -> occupancy
(** Probe for the profiler's online sampler: a host-side read of the
    counters, charging no simulated cycles. *)

val in_use : t -> int
(** Packets currently out of the Empty sub-pool (held or holding work). *)

val max_in_use : t -> int
(** High-water mark of {!in_use} — the paper's upper bound on packet
    memory (section 6.3). *)

val entries : t -> int
val max_entries : t -> int
(** High-water mark of total entries across all packets — the paper's
    lower bound on packet memory. *)

val get_ops : t -> int
val put_ops : t -> int

val reset_watermarks : t -> unit
