(** Deterministic fleet-level chaos scenarios.

    Where {!Fault} perturbs a single VM's collector from the inside, a
    [Cluster_fault.plan] perturbs the {e fleet}: shards going dark,
    rejoining cold, or running slow.  The plan is a pure function of
    [(scenario, seed, shards, horizon)] — no mutable state, no clock —
    so the cluster front end can consult it while routing and the same
    plan replays byte-identically at any [--jobs].

    {ul
    {- {e shard-crash}: one shard goes dark mid-run and never rejoins;
       requests queued on it at the crash are lost, later keys remap;}
    {- {e shard-restart}: a dark window followed by a cold rejoin — the
       restarted incarnation starts with an empty queue and a fresh heap,
       forcing re-warm GC behaviour;}
    {- {e shard-brownout}: a noisy neighbour inflates one shard's service
       times over a window (the shard stays routable);}
    {- {e ring-flap}: the victim repeatedly leaves and rejoins,
       exercising repeated ring remap / rejoin churn.}}

    Each time a scenario touches a shard the cluster layer emits a typed
    {!Cgc_obs.Event.Cluster_fault} event (argument = {!index}) into that
    shard incarnation's trace. *)

type scenario = Shard_crash | Shard_restart | Shard_brownout | Ring_flap

val all : scenario list
(** Every scenario, in declaration order (index order). *)

val index : scenario -> int
(** Stable 0-based index — the [arg] of the [Cluster_fault] trace
    event. *)

val to_name : scenario -> string
(** Stable dashed name, e.g. [shard-crash] — the CLI vocabulary. *)

val of_name : string -> scenario option
(** Inverse of {!to_name}. *)

val describe : scenario -> string
(** One-line description for [--help] output and docs. *)

type plan
(** An immutable chaos plan for one cluster run. *)

type incarnation = {
  index : int;  (** 0 for the initial VM, 1.. for each cold rejoin *)
  start : int;  (** fleet cycle the incarnation comes up *)
  stop : int;  (** fleet cycle it goes down (or the horizon) *)
  crashed : bool;  (** true when [stop] is a crash, not the horizon *)
}

val none : horizon:int -> plan
(** The inert plan: every shard lives [0, horizon), no victim. *)

val make : scenario:scenario -> seed:int -> shards:int -> horizon:int -> plan
(** Build the deterministic plan.  The victim shard and window jitter are
    drawn from a {!Cgc_util.Prng} stream derived from [seed]; windows are
    fixed fractions of [horizon] plus that jitter. *)

val scenario : plan -> scenario option
val seed : plan -> int
val victim : plan -> int
(** The perturbed shard id, or [-1] for {!none}. *)

val live_at : plan -> shard:int -> int -> bool
(** Ground truth: is [shard] up at fleet cycle [t]?  (The balancer only
    learns this at epoch boundaries; mid-epoch the retry rung discovers
    it the hard way.) *)

val incarnations : plan -> shard:int -> incarnation list
(** The shard's VM incarnations, in time order.  Exactly one entry for
    unperturbed shards; a crashed entry per dark window for the victim,
    plus a final live entry when it rejoins before the horizon. *)

val brownout : plan -> shard:int -> (int * int * float) option
(** [(start, stop, factor)] service-time inflation window, if the shard
    browns out. *)

val first_onset : plan -> int option
(** Fleet cycle of the first perturbation, if any. *)

val recovered_at : plan -> int option
(** Fleet cycle at which every shard is nominal again — [None] for the
    inert plan and for scenarios that never recover (shard-crash). *)
