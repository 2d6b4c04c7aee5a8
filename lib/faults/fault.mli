(** Deterministic fault injection.

    A [Fault.t] is a PRNG-seeded perturbation source threaded through
    {!Cgc_core.Config} into every layer of the simulator.  Each named
    {e scenario} arms one injection site; the sites query the injector on
    their hot paths and receive either "no fault" (the overwhelmingly
    common answer — a disabled injector is a single pattern match) or a
    perturbation to apply:

    {ul
    {- {e packet-starvation}: periodic windows during which the work-packet
       pool pretends to be empty — [get_input]/[get_output] return [None],
       forcing the overflow, deferral and card-retrace fallbacks;}
    {- {e alloc-burst}: a mutator's allocation occasionally explodes into a
       burst of extra short-lived objects, stressing the metering formulas
       with allocation-rate spikes;}
    {- {e mutator-stall}: a mutator occasionally stalls for a long stretch
       of cycles mid-allocation (a page fault, a descheduled thread);}
    {- {e meter-lowball}: the metering formulas see scaled-down rate
       estimates — the kickoff fires late and increments are assigned too
       little work, driving cycles toward allocation failure;}
    {- {e card-storm}: periodic mass dirtying of random cards, inflating
       the card-cleaning volume far beyond the M estimate;}
    {- {e bg-stall}: the background tracing threads repeatedly oversleep,
       withdrawing the concurrent help the progress formula credits.}}

    Determinism: the injector owns a {!Cgc_util.Prng} stream derived from
    its seed, windows are functions of simulated time only, and every
    query site runs inside the deterministic cooperative scheduler — so
    equal seed and scenario flags reproduce the same perturbations and
    byte-identical event traces.  Each firing emits a
    {!Cgc_obs.Event.Fault_inject} event (argument = scenario index) so
    traces show exactly what was injected and when. *)

type scenario =
  | Packet_starvation
  | Alloc_burst
  | Mutator_stall
  | Meter_lowball
  | Card_storm
  | Bg_stall

val all : scenario list
(** Every scenario, in declaration order (index order). *)

val index : scenario -> int
(** Stable 0-based index — the [arg] of the [Fault_inject] trace event. *)

val to_name : scenario -> string
(** Stable dashed name, e.g. [packet-starvation] — the CLI vocabulary. *)

val of_name : string -> scenario option
(** Inverse of {!to_name}; ["all"] is handled by the CLI, not here. *)

val describe : scenario -> string
(** One-line description for [--help] output and docs. *)

type t

val disabled : t
(** The inert injector: every query is a single match returning "no
    fault".  This is the {!Cgc_core.Config.default} value. *)

val create : ?scenarios:scenario list -> seed:int -> unit -> t
(** An injector firing the given scenarios (default: {!all}) from a
    deterministic PRNG stream seeded by [seed].  It reads a clock that
    stays at time 0 and emits nowhere until {!arm} binds a copy to a
    VM; {!Cgc_core.Config} carries it as that copy's template. *)

val arm : t -> clock:Cgc_util.Clock.t -> obs:Cgc_obs.Obs.t -> t
(** A fresh injector with [t]'s scenarios and seed — its own PRNG
    stream, zero counts — reading [clock] for its time windows and
    emitting to [obs].  Each VM arms its own ({!Cgc_runtime.Vm.create}
    does this), so no two VMs share injector state and [t] is never
    mutated.  {!disabled} stays disabled. *)

val enabled : t -> bool

val seed : t -> int
(** The creation seed ([0] for {!disabled}) — printed by reports so a run
    can be reproduced. *)

val injections : t -> (scenario * int) list
(** Firing counts per active scenario (continuous sites count entered
    windows, discrete sites count individual firings). *)

val total_injections : t -> int

(** {2 Query sites}

    Each returns the neutral element when the injector is disabled, the
    scenario is not armed, or the dice say no. *)

val starve_packets : t -> bool
(** True while a packet-starvation window is open: the pool must answer
    [None] to both [get_input] and [get_output]. *)

val alloc_burst : t -> int
(** Number of extra garbage objects the mutator should allocate before
    the real one; [0] almost always. *)

val mutator_stall : t -> int
(** Cycles the mutator should burn right now; [0] almost always. *)

val meter_scale : t -> float
(** Factor applied to the metering rate estimates and the kickoff
    threshold; [1.0] unless meter-lowball is armed. *)

val card_storm : t -> ncards:int -> int list
(** Card indices (all [< ncards]) to mass-dirty right now; [[]] outside
    storm instants. *)

val bg_stall : t -> int
(** Cycles a background tracing thread should oversleep; [0] almost
    always. *)
