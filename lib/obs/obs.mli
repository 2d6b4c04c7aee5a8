(** The event sink threaded through the simulator.

    A sink is either {!null} — every emit is a single pattern match and a
    return, so tracing is zero-cost when off — or armed, in which case
    events are appended to a bounded {!Ring} per emitting simulated
    thread.  Timestamps and thread ids come from the VM's
    {!Cgc_util.Clock} (simulated time, never the host clock), so an
    armed sink is fully deterministic: two runs with the same seed
    produce identical event sequences, and {!events} orders them by
    simulated time with a stable (thread id, emission order) tie-break. *)

type t

val null : t
(** The no-op sink: {!enabled} is [false], emits do nothing, {!events}
    is empty. *)

val create : ?ring_capacity:int -> Cgc_util.Clock.t -> t
(** An armed sink stamping events from the clock.  [ring_capacity]
    (default [65536]) bounds each per-thread ring; overflow drops the
    oldest events and is reported by {!dropped}.  A ring's memory
    follows the events it holds, not its capacity, so [max_int] makes
    a lossless sink.  {!instant}, {!span}
    and {!span_at} attribute the event to the clock's running thread and
    raise [Invalid_argument] when none is running. *)

val enabled : t -> bool

val instant : t -> ?arg:int -> Event.code -> unit
(** Record a point event at the current simulated time. *)

val span : t -> ?arg:int -> start:int -> Event.code -> unit
(** Record a span from simulated time [start] to now. *)

val span_at : t -> ?arg:int -> ts:int -> dur:int -> Event.code -> unit
(** Record a span with an explicit extent — for callers that learn the
    bounds after the fact (e.g. the pause length returned by
    [Sched.restart_world]). *)

val instant_host : t -> ?arg:int -> tid:int -> ts:int -> Event.code -> unit
(** Record a point event from host-side code (e.g. an [on_advance]
    hook), where no thread is running: both the timestamp and the
    emitting thread id are supplied explicitly.  A
    synthetic [tid] (such as [-1] for the server's arrival process) gets
    its own ring, keeping per-thread ordering guarantees intact. *)

val emitted : t -> int
(** Total events emitted (including any later overwritten). *)

val dropped : t -> int
(** Events lost to ring overflow, across all threads. *)

val dropped_by_thread : t -> (int * int) list
(** [(tid, dropped)] for every thread whose ring overflowed, sorted by
    thread id — lets reports name the lossy rings instead of only the
    total. *)

val iter_sorted :
  t ->
  (ts:int -> dur:int -> tid:int -> code:Event.code -> arg:int -> unit) ->
  unit
(** Every surviving event's fields, in {!events} order, without building
    a record per event: the trace exporter writes straight from the
    rings through this.  The order is one radix sort of (ring, slot)
    handles keyed on the timestamp; it is cached on the sink and reused
    by {!events_array} and later calls until the next emit or {!clear}.
    The cached order costs one int per event; the sort, one more. *)

val events : t -> Event.t list
(** Every surviving event, sorted by timestamp; ties broken by thread id
    then emission order, so the result is deterministic. *)

val events_array : t -> Event.t array
(** {!events} as a flat array (same contents, same order).  The analysis
    and export passes prefer this form: one contiguous array of records
    sorts and scans several times faster than a list of the same
    length. *)

val clear : t -> unit
(** Drop all recorded events (e.g. after a warm-up window). *)
