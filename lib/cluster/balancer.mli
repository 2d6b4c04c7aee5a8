(** Front-end request routing across shards.

    The balancer runs {e before} any shard simulation: it draws the
    fleet arrival stream once, assigns every arrival to a shard, and
    hands each shard its slice to replay
    ({!Cgc_server.Arrival.scripted}).  Routing therefore uses only
    front-end knowledge — arrival times and the balancer's own model of
    each shard's backlog — never oracle visibility into shard state,
    exactly like a real L7 balancer tracking its outstanding requests
    per backend.  The payoff is that shard simulations stay mutually
    independent: they can run on any number of host domains and remain
    byte-identical.

    Three policies:

    {ul
    {- {e round-robin} — arrival [i] goes to shard [i mod n];}
    {- {e least-queue-depth} — each shard's backlog is modelled as a
       fluid queue draining at [workers / service_est_ms]; every
       arrival goes to the shard whose modelled depth is lowest, ties
       breaking round-robin (a fixed tie-break would herd the whole
       fleet onto shard 0 whenever the modelled queues are empty).
       This is join-shortest-queue as seen from the front end;}
    {- {e consistent-hash} — shards own 64 points each on a hash
       ring; every arrival draws a session key from the balancer's PRNG
       stream and goes to the first shard point clockwise of the key's
       hash.  Keyed routing concentrates hot sessions, so expect worse
       tail balance than round-robin at equal load — that skew is the
       point of measuring it.}} *)

type policy = Round_robin | Least_queue | Consistent_hash

val policy_name : policy -> string
(** ["round-robin"], ["least-queue"] or ["consistent-hash"]. *)

val policy_of_name : string -> policy option
(** Accepts the {!policy_name} forms plus the CLI short forms ["rr"],
    ["lqd"] and ["hash"]. *)

val all_policies : policy list

(** {2 Hash ring over a live set}

    Exposed so tests can check the failover contract directly: a shard's
    vnode positions depend only on its id, so removing a shard from the
    live set remaps {e only} the keys it owned (monotonicity) and
    re-adding it restores the exact prior assignment. *)

val mix64 : int64 -> int64
(** The SplitMix64 finalizer used for ring points and session keys. *)

val ring_points : nshards:int -> live:bool array -> (int64 * int) array
(** The sorted [(point, shard)] ring restricted to live shards. *)

val ring_lookup : (int64 * int) array -> int64 -> int
(** First shard clockwise of the hash.  The ring must be non-empty. *)

(** {2 Epoch router}

    How the cluster front end places arrivals.  The balancer-visible
    live set is updated only at epoch boundaries ({!set_live}); between
    boundaries {!pick} places arrivals one at a time, supporting
    per-request retry (grow [avoid]) and hedging ({!hedge_better}).  The
    least-queue fluid backlog model is maintained for every policy — it
    is the hedging signal even when placement ignores it.  All state is
    deterministic: same inputs, same placements, at any [--jobs]. *)

type router

val router :
  policy ->
  nshards:int ->
  workers:int ->
  service_est_ms:float ->
  cycles_per_ms:int ->
  router
(** A fresh router with every shard live and empty modelled queues. *)

val set_live : router -> bool array -> unit
(** Install the balancer-visible live set (epoch boundary).  Rebuilds
    the hash ring from the live shards' vnodes. *)

val nlive : router -> int

val pick : router -> now:int -> key:int64 -> avoid:bool array -> int option
(** Place one arrival at cycle [now]: the next live non-avoided shard
    (round-robin), the shallowest modelled queue (least-queue), or the
    first live non-avoided shard clockwise of [key] (consistent-hash —
    [key] is ignored by the other policies).  [None] when every live
    shard is avoided or the fleet is dark.  Advances the fluid model to
    [now]; does {e not} bump any queue — call {!note_routed} on the
    shard the request finally lands on. *)

val note_routed : router -> int -> unit
(** Record a request landing on a shard in the fluid backlog model. *)

val hedge_better :
  router -> primary:int -> margin:float -> int option
(** The hedging rung: a live shard whose modelled depth undercuts the
    primary's by at least [margin], if any ([margin <= 0] disables). *)

val digest : router -> int64
(** Order-independent digest of the routing table — policy, live set and
    hash ring — reported per epoch so runs can prove when routing
    actually changed. *)
