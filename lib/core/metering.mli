(** The kickoff and progress formulas of section 3.

    All quantities are in heap slots (1 slot = 8 simulated bytes); the
    tracing rate K is dimensionless (slots traced per slot allocated), so
    the formulas are identical to the paper's byte-based ones.

    {ul
    {- {e Kickoff}: a new concurrent cycle starts when free space drops
       below [(L + M) / K0], where [L] predicts the volume to be traced
       and [M] the dirty-card volume to be scanned; both are exponential
       smoothing averages over past cycles.}
    {- {e Progress}: at each increment the current rate is
       [K = (M + L - T) / F]; a negative K (under-estimated L or M) is
       clamped to [Kmax = 2 * K0].  The background threads' smoothed
       rate [Best] is subtracted — if they are keeping up, the
       mutators trace nothing.  If the remaining K exceeds K0 (tracing
       behind schedule) it is boosted by the corrective term:
       [K + (K - K0) * C].}} *)

type t
(** Mutable metering state for one collector: the L, M and Best
    exponential-smoothing estimators plus the {!Config.t} it meters for.
    K0 comes from the config; Kmax = 2 K0 (the paper's choice), the
    corrective constant C = 0.5 and the smoothing weight 0.5 are
    fixed. *)

val create : Config.t -> heap_slots:int -> t
(** Fresh estimators.  Before any cycle has completed, L is seeded with
    40% of the heap and M with 2%, so the first kickoff errs early
    (starting a cycle too soon is safe; too late risks an allocation
    failure). *)

val kickoff_threshold : t -> float
(** Free-slot threshold that triggers a new concurrent cycle. *)

val should_start : t -> free:int -> bool
(** [free < kickoff_threshold], i.e. time to start a concurrent cycle. *)

val increment_rate : t -> traced:int -> free:int -> float
(** The effective mutator tracing rate K for an increment, after
    clamping, background credit and the corrective term. *)

val increment_work : t -> traced:int -> free:int -> alloc:int -> int
(** Slots of tracing to assign to a mutator that just allocated [alloc]
    slots: [increment_rate * alloc], rounded up. *)

val observe_background : t -> bg_traced:int -> mutator_alloc:int -> unit
(** Fold one measurement window into Best ([B = bg / alloc]). *)

val best : t -> float
(** Current smoothed background tracing rate Best (slots traced by the
    background threads per slot allocated by mutators). *)

val l_estimate : t -> float
(** Predicted live (to-be-traced) volume for the current cycle, slots. *)

val end_cycle : t -> l_observed:int -> m_observed:int -> unit
(** Update the L and M estimators with this cycle's actual values. *)
