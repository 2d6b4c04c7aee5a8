module R = Cgc_util.Ringbuf
module Clock = Cgc_util.Clock

type prio = High | Normal | Low

type outcome = Finished | Preempted | Slept of int | Yielded

type cont = C : (unit, outcome) Effect.Deep.continuation -> cont

type state = Runnable | Running | Sleeping | Dead

type thread = {
  id : int;
  name : string;
  mutable prio : prio;
  mutable st : state;
  mutable wake_at : int;
  mutable ready_at : int;
      (* a thread may not be dispatched before this time: it is the end of
         its previous quantum, so a thread can never run on a lagging CPU
         "before" work it has already done on another *)
  mutable k : cont option;
  mutable body : (unit -> unit) option;
  mutable cycles : int;
}

type _ Effect.t +=
  | Sleep : int -> unit Effect.t
  | Yield : unit Effect.t

let dummy_thread =
  { id = -1; name = "<dummy>"; prio = Low; st = Dead; wake_at = 0;
    ready_at = 0; k = None; body = None; cycles = 0 }

(* Min-heap of sleeping threads keyed by wake time (shared kernel, see
   Cgc_util.Minheap for the slot-hygiene contract). *)
module Sleepq = Cgc_util.Minheap.Make (struct
  type elt = thread

  let key th = th.wake_at
  let dummy = dummy_thread
end)

(* One priority level's runqueue: an index-based ring (no per-push cell
   allocation, unlike the Queue it replaced) plus a cached lower bound on
   the queued threads' ready times.  [ready_at] is immutable while a
   thread is queued, so the cache is exact whenever [dirty] is false: it
   is refreshed eagerly on push and invalidated only when a thread is
   actually removed.  The in-place rotation [take_ready] performs leaves
   the contents unchanged, so it does not touch the cache. *)
type runq = {
  q : thread R.t;
  mutable cached_min : int; (* min ready_at of queued threads; exact unless dirty *)
  mutable dirty : bool;
}

let runq_create () =
  { q = R.create ~capacity:32 dummy_thread; cached_min = max_int; dirty = false }

let rq_push rq th =
  R.push_back rq.q th;
  if (not rq.dirty) && th.ready_at < rq.cached_min then
    rq.cached_min <- th.ready_at

let rec rq_min_scan q i n acc =
  if i >= n then acc
  else
    let th = R.get q i in
    rq_min_scan q (i + 1) n (if th.ready_at < acc then th.ready_at else acc)

let rq_min rq =
  if rq.dirty then begin
    rq.cached_min <- rq_min_scan rq.q 0 (R.length rq.q) max_int;
    rq.dirty <- false
  end;
  rq.cached_min

type t = {
  n_cpus : int;
  cpu_clock : int array;
  clock : Clock.t;  (* the running slice; shared with Machine, Obs and Fault *)
  runq_high : runq;
  runq_normal : runq;
  runq_low : runq;
  sleepers : Sleepq.t;
  mutable next_wake : int;
      (* mirror of [Sleepq.min_key t.sleepers], so the per-iteration
         "anything due?" test is one field compare.  Updated on every
         sleeper push and after every drain. *)
  mutable live : int;
  mutable stopped : bool;
  mutable stop_at : int;
  mutable initiator : (thread * prio) option;
  mutable cur : thread; (* [dummy_thread] when no thread is running *)
  mutable next_id : int;
  mutable stop_flag : bool;
  mutable idle : int;
  mutable busy : int;
  mutable low_skips : int;
      (* priority aging: after this many dispatches in which a ready
         low-priority thread was passed over, it gets one slice.  Without
         this a machine saturated with normal-priority mutators would
         starve the background GC threads *absolutely* — unlike a real
         OS — and a preempted background thread could sit on work packets
         for a whole cycle, blocking termination detection. *)
  mutable hooks : (int -> unit) array;
      (* advance hooks, in installation order; an array so the per-
         dispatch walk is a plain indexed loop with no closure allocation *)
  mutable all_threads : thread list;  (* every spawned thread, newest first *)
}

let low_boost_every = 64

(* Context-switch cost charged at the end of every slice. *)
let dispatch = Cgc_smp.Cost.default.dispatch

let create ?(quantum = 110_000) ~ncpus () =
  if ncpus <= 0 then invalid_arg "Sched.create: ncpus";
  {
    n_cpus = ncpus;
    cpu_clock = Array.make ncpus 0;
    clock = { Clock.base = 0; used = 0; tid = -1; quantum };
    runq_high = runq_create ();
    runq_normal = runq_create ();
    runq_low = runq_create ();
    sleepers = Sleepq.create ();
    next_wake = max_int;
    live = 0;
    stopped = false;
    stop_at = 0;
    initiator = None;
    cur = dummy_thread;
    next_id = 0;
    stop_flag = false;
    idle = 0;
    busy = 0;
    low_skips = 0;
    hooks = [||];
    all_threads = [];
  }

let ncpus t = t.n_cpus

let now t = Clock.now t.clock
let clock t = t.clock

let enqueue t th =
  match th.prio with
  | High -> rq_push t.runq_high th
  | Normal -> rq_push t.runq_normal th
  | Low -> rq_push t.runq_low th

let spawn t ~name ~prio body =
  let th =
    { id = t.next_id; name; prio; st = Runnable; wake_at = 0;
      ready_at = now t; k = None; body = Some body; cycles = 0 }
  in
  t.next_id <- t.next_id + 1;
  t.live <- t.live + 1;
  t.all_threads <- th :: t.all_threads;
  enqueue t th;
  th

let consume t n = Clock.spend t.clock n

let sleep n = if n > 0 then Effect.perform (Sleep n) else Effect.perform Yield
let yield () = Effect.perform Yield

let current t =
  if t.cur == dummy_thread then
    invalid_arg "Sched.current: no thread is running"
  else t.cur

let world_stopped t = t.stopped

let stop_the_world t =
  if t.stopped then invalid_arg "Sched.stop_the_world: already stopped";
  t.stopped <- true;
  t.stop_at <- now t;
  (* The initiating thread must remain schedulable while the world is
     stopped: it drives the collection.  Boost it to High for the
     duration. *)
  let th = t.cur in
  if th == dummy_thread then t.initiator <- None
  else begin
    t.initiator <- Some (th, th.prio);
    th.prio <- High
  end

let restart_world t =
  if not t.stopped then invalid_arg "Sched.restart_world: not stopped";
  t.stopped <- false;
  let pause = now t - t.stop_at in
  (match t.initiator with
  | Some (th, p) -> th.prio <- p
  | None -> ());
  t.initiator <- None;
  pause

let thread_id th = th.id
let thread_cycles th = th.cycles

let request_stop t = t.stop_flag <- true
let stop_requested t = t.stop_flag

let idle_cycles t = t.idle
let busy_cycles t = t.busy

let on_advance t f = t.hooks <- Array.append t.hooks [| f |]

type tstate = Runnable | Running | Sleeping | Dead

let thread_state th =
  match th.st with
  | (Runnable : state) -> Runnable
  | Running -> Running
  | Sleeping -> Sleeping
  | Dead -> Dead

let thread_prio th = th.prio
let threads t = List.rev t.all_threads
let iter_threads t f = List.iter f t.all_threads

(* The no-retention invariant the PR 9 bugfixes enforce: every vacated
   slot in the sleep queue and the three runqueue rings holds the dummy.
   Test hook — O(capacity), never called on the hot path. *)
let debug_queues_clean t =
  Sleepq.slots_clean t.sleepers
  && R.slots_clean t.runq_high.q
  && R.slots_clean t.runq_normal.q
  && R.slots_clean t.runq_low.q

let handler th : (unit, outcome) Effect.Deep.handler =
  {
    retc = (fun () -> Finished);
    exnc =
      (fun e ->
        Printf.eprintf "simulated thread %s died: %s\n%s\n%!" th.name
          (Printexc.to_string e)
          (Printexc.get_backtrace ());
        raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Clock.Preempt ->
            Some
              (fun (k : (a, outcome) Effect.Deep.continuation) ->
                th.k <- Some (C k);
                Preempted)
        | Sleep n ->
            Some
              (fun (k : (a, outcome) Effect.Deep.continuation) ->
                th.k <- Some (C k);
                Slept n)
        | Yield ->
            Some
              (fun (k : (a, outcome) Effect.Deep.continuation) ->
                th.k <- Some (C k);
                Yielded)
        | _ -> None);
  }

let exec th =
  match th.k with
  | Some (C k) ->
      th.k <- None;
      Effect.Deep.continue k ()
  | None -> (
      match th.body with
      | Some body ->
          th.body <- None;
          Effect.Deep.match_with body () (handler th)
      | None -> assert false)

(* Take the first thread in the queue that is allowed to run at time
   [tm]; threads inspected before it keep their relative order (they are
   rotated to the tail, exactly as the Queue pop/push of the previous
   implementation did — the rotation is semantically observable, so it
   is preserved).  Returns [dummy_thread] when nothing is ready; written
   as top-level tail recursion so the scan allocates nothing. *)
let rec take_ready_loop rq tm i n =
  if i >= n then dummy_thread
  else
    let th = R.pop_front rq.q in
    if th.ready_at <= tm then begin
      (* A thread actually left the queue: the cached bound may now be
         stale.  An empty queue resets to a clean max_int. *)
      if R.is_empty rq.q then begin
        rq.dirty <- false;
        rq.cached_min <- max_int
      end
      else rq.dirty <- true;
      th
    end
    else begin
      R.push_back rq.q th;
      take_ready_loop rq tm (i + 1) n
    end

(* A fully failed scan pops and re-pushes every element, which restores
   the original order — so when the cached bound proves no queued thread
   is ready yet, skipping the scan entirely is indistinguishable from
   running it.  Idle processors poll the queues every advance; this
   makes that poll O(1). *)
let take_ready rq tm =
  if rq_min rq > tm then dummy_thread
  else take_ready_loop rq tm 0 (R.length rq.q)

let pick t tm =
  if t.stopped then take_ready t.runq_high tm
  else begin
    let th = take_ready t.runq_high tm in
    if th != dummy_thread then th
    else begin
      let boost =
        t.low_skips >= low_boost_every && not (R.is_empty t.runq_low.q)
      in
      if boost then begin
        let th = take_ready t.runq_low tm in
        if th != dummy_thread then begin
          t.low_skips <- 0;
          th
        end
        else take_ready t.runq_normal tm
      end
      else begin
        let th = take_ready t.runq_normal tm in
        if th != dummy_thread then begin
          if not (R.is_empty t.runq_low.q) then
            t.low_skips <- t.low_skips + 1;
          th
        end
        else take_ready t.runq_low tm
      end
    end
  end

(* Earliest time any queued thread becomes dispatchable.  The cached
   per-queue bounds make this O(1) between dispatches; a queue is only
   re-scanned (once) after a removal dirtied its cache. *)
let min_ready_at t =
  let best = rq_min t.runq_high in
  if t.stopped then best
  else
    let best = Int.min best (rq_min t.runq_normal) in
    Int.min best (rq_min t.runq_low)

let min_cpu t =
  let c = ref 0 in
  for i = 1 to t.n_cpus - 1 do
    if t.cpu_clock.(i) < t.cpu_clock.(!c) then c := i
  done;
  !c

(* Drop stale top entries (threads that are no longer Sleeping) so the
   sleep queue can neither re-enqueue a dead thread nor stall the idle
   advance on a wake time that no longer means anything.  In the current
   scheduler every queued entry is Sleeping by construction; this is the
   defensive companion to the [st = Sleeping] check in [wake_due]. *)
let rec purge_stale_loop t =
  if
    (not (Sleepq.is_empty t.sleepers))
    && (Sleepq.top t.sleepers).st <> Sleeping
  then begin
    ignore (Sleepq.pop t.sleepers);
    purge_stale_loop t
  end

let purge_stale t =
  if
    (not (Sleepq.is_empty t.sleepers))
    && (Sleepq.top t.sleepers).st <> Sleeping
  then begin
    purge_stale_loop t;
    t.next_wake <- Sleepq.min_key t.sleepers
  end

(* Callers guard with [t.next_wake <= tm] so the no-op case costs one
   field compare and no call. *)
let wake_due t tm =
  while Sleepq.min_key t.sleepers <= tm do
    let th = Sleepq.pop t.sleepers in
    if th.st = Sleeping then begin
      th.st <- Runnable;
      enqueue t th
    end
  done;
  t.next_wake <- Sleepq.min_key t.sleepers

let run t ~until =
  if t.cur != dummy_thread then invalid_arg "Sched.run: reentrant call";
  let continue = ref true in
  while !continue do
    if t.live = 0 then continue := false
    else begin
      let c = min_cpu t in
      let tm = t.cpu_clock.(c) in
      if tm > until then continue := false
      else begin
        if t.next_wake <= tm then wake_due t tm;
        let hooks = t.hooks in
        for i = 0 to Array.length hooks - 1 do
          hooks.(i) tm
        done;
        let th = pick t tm in
        if th != dummy_thread then begin
          let clk = t.clock in
          clk.base <- tm;
          clk.used <- 0;
          clk.tid <- th.id;
          t.cur <- th;
          th.st <- Running;
          let outcome = exec th in
          t.cur <- dummy_thread;
          clk.tid <- -1;
          let used = clk.used in
          th.cycles <- th.cycles + used;
          t.busy <- t.busy + used;
          let fin = tm + used + dispatch in
          t.cpu_clock.(c) <- fin;
          match outcome with
          | Finished ->
              th.st <- Dead;
              t.live <- t.live - 1
          | Preempted | Yielded ->
              th.st <- Runnable;
              th.ready_at <- fin;
              enqueue t th
          | Slept n ->
              th.st <- Sleeping;
              th.wake_at <- tm + used + n;
              th.ready_at <- th.wake_at;
              Sleepq.push t.sleepers th;
              if th.wake_at < t.next_wake then t.next_wake <- th.wake_at
        end
        else begin
          (* This CPU is idle.  Advance it to the next time anything can
             change: the earliest queued thread's ready time, the
             earliest sleeper wake-up, bounded above by a quantum so a
             stopped world is re-polled cheaply. *)
          purge_stale t;
          let next_queued = min_ready_at t in
          let next_sleep = t.next_wake in
          let next = Int.min next_queued next_sleep in
          let next =
            if next = max_int then
              if
                R.is_empty t.runq_high.q
                && R.is_empty t.runq_normal.q
                && R.is_empty t.runq_low.q
                && Sleepq.is_empty t.sleepers
              then (
                (* Nothing runnable and nothing will wake: no progress
                   is possible. *)
                continue := false;
                tm)
              else tm + t.clock.quantum
            else Int.max (tm + 1) (Int.min next (tm + t.clock.quantum))
          in
          t.idle <- t.idle + (next - tm);
          t.cpu_clock.(c) <- next
        end
      end
    end
  done
(* Note: the cooperative stop flag is NOT raised here — [run] may be
   called again to continue the same simulation (warm-up followed by a
   measured window).  Threads parked at effect points simply resume. *)
