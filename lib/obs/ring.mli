(** Bounded per-worker event ring.

    Each simulated thread that emits trace events gets one of these.  The
    capacity is fixed at creation; once full, the {e oldest} event is
    overwritten so that the tail of a run — where the interesting
    behaviour usually is — survives, and a drop counter records how much
    history was lost.  {!iter_slots} yields the surviving events oldest-first.

    Storage grows with the events held, not with the capacity: events
    live in chunks of 1024 (five ints, 40 bytes, per event), each
    allocated when the first event lands in it.  A ring holding [n]
    events costs [40 * n] bytes plus at most one partly filled chunk
    (under 40 KB), so a capacity of [max_int] is a ring that never
    drops.  Appends are O(1) and allocate nothing once their chunk
    exists, so an armed sink stays cheap on the collector's hot paths. *)

type t

val create : capacity:int -> t
(** [Invalid_argument] unless [capacity > 0].  Allocates no chunk. *)

val add : t -> Event.t -> unit

val add_fields :
  t -> ts:int -> dur:int -> tid:int -> code:Event.code -> arg:int -> unit
(** Like {!add} but takes the event's fields directly, so the armed hot
    path never materialises an [Event.t] record. *)

val length : t -> int
(** Events currently held (at most [capacity]). *)

val dropped : t -> int
(** Events overwritten since creation (or the last {!clear}). *)

val to_list : t -> Event.t list

(** {2 Slots}

    A slot names one held event: an integer in [\[0, length)], valid
    until the next {!add} or {!clear}.  The merged trace view sorts
    slots instead of copying events. *)

val iter_slots : t -> (int -> unit) -> unit
(** The surviving events' slots, oldest first. *)

val ts : t -> int -> int
(** The timestamp of the event at a slot. *)

val read :
  t ->
  int ->
  (ts:int -> dur:int -> tid:int -> code:Event.code -> arg:int -> 'a) ->
  'a
(** [read t slot f] applies [f] to the fields of the event at [slot],
    without building a record. *)

val get : t -> int -> Event.t
(** The event at a slot, as a record. *)

val clear : t -> unit
(** Forget every event; the chunks stay allocated for reuse. *)
