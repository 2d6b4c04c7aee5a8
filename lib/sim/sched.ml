module Clock = Cgc_util.Clock
module Sleepq = Cgc_util.Intheap

type prio = High | Normal | Low

type outcome = Finished | Preempted | Slept | Yielded

(* One block per context switch: the continuation's [C] box.  [No_k] is
   a constant, so clearing it allocates nothing. *)
type cont = C : (unit, outcome) Effect.Deep.continuation -> cont | No_k

type state = Runnable | Running | Sleeping | Dead

type thread = {
  id : int;
  name : string;
  mutable prio : prio;
  mutable st : state;
  mutable ready_at : int;
      (* a thread may not be dispatched before this time: it is the end of
         its previous quantum, so a thread can never run on a lagging CPU
         "before" work it has already done on another *)
  mutable k : cont;
  mutable body : (unit -> unit) option;
  mutable cycles : int;
  mutable nap : int;
      (* length of the sleep or poll interval the thread last asked for;
         read by [run] when it files the thread in the sleep queue, so
         the [Slept] outcome carries no argument *)
  mutable poll : unit -> bool;  (* the pending poll's predicate, or [no_poll] *)
}

type _ Effect.t +=
  | Sleep : int -> unit Effect.t
  | Yield : unit Effect.t
  | Poll : int * (unit -> bool) -> unit Effect.t

let no_poll () = true

let dummy_thread =
  { id = -1; name = "<dummy>"; prio = Low; st = Dead;
    ready_at = 0; k = No_k; body = None; cycles = 0; nap = 0;
    poll = no_poll }

(* One priority level's runqueue: a ring of thread ids with a parallel
   ring of their ready times, plus a cached lower bound on those times.
   Both rings hold ints, so no push, pop or rotation stores a pointer
   (and none pays the write barrier), and the ready-time scans read no
   thread record.  [ready_at] is immutable while a thread is queued, so
   the cache is exact whenever [dirty] is false: it is refreshed eagerly
   on push and invalidated only when a thread is actually removed.  The
   in-place rotation [take_ready] performs leaves the contents unchanged,
   so it does not touch the cache. *)
type runq = {
  mutable ids : int array;
  mutable rdy : int array;  (* ready_at of the thread in the same slot *)
  mutable head : int;
  mutable len : int;
  mutable cached_min : int; (* min ready_at of queued threads; exact unless dirty *)
  mutable dirty : bool;
}

let runq_create () =
  { ids = Array.make 32 0; rdy = Array.make 32 0; head = 0; len = 0;
    cached_min = max_int; dirty = false }

(* Physical slot of logical position [i] (0 = front). *)
let rq_slot rq i =
  let j = rq.head + i in
  let cap = Array.length rq.ids in
  if j >= cap then j - cap else j

let rq_grow rq =
  let cap = Array.length rq.ids in
  let ids = Array.make (2 * cap) 0 and rdy = Array.make (2 * cap) 0 in
  for i = 0 to rq.len - 1 do
    let j = rq_slot rq i in
    ids.(i) <- rq.ids.(j);
    rdy.(i) <- rq.rdy.(j)
  done;
  rq.ids <- ids;
  rq.rdy <- rdy;
  rq.head <- 0

let rq_append rq id ready_at =
  if rq.len = Array.length rq.ids then rq_grow rq;
  let j = rq_slot rq rq.len in
  rq.ids.(j) <- id;
  rq.rdy.(j) <- ready_at;
  rq.len <- rq.len + 1

let rq_push rq id ready_at =
  rq_append rq id ready_at;
  if (not rq.dirty) && ready_at < rq.cached_min then rq.cached_min <- ready_at

let rec rq_min_scan rq i n acc =
  if i >= n then acc
  else
    let r = rq.rdy.(rq_slot rq i) in
    rq_min_scan rq (i + 1) n (if r < acc then r else acc)

let rq_min rq =
  if rq.dirty then begin
    rq.cached_min <- rq_min_scan rq 0 rq.len max_int;
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
  sleepers : Sleepq.t;  (* thread ids keyed by wake time *)
  mutable next_wake : int;
      (* mirror of [Sleepq.min_key t.sleepers], so the per-iteration
         "anything due?" test is one field compare.  Updated on every
         sleeper push and after every drain. *)
  mutable live : int;
  mutable stopped : bool;
  mutable stop_at : int;
  mutable initiator : (thread * prio) option;
  mutable cur : int; (* id of the running thread; -1 when none is *)
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
  mutable hooks : (int -> int) array;
      (* advance hooks, in installation order, each returning the time it
         is next due; an array so a walk is a plain indexed loop with no
         closure allocation *)
  mutable hook_due : int;
      (* the smallest due time the last walk returned; [min_int] forces
         a walk at the next iteration (a [run] starts, a hook is
         installed, a thread has resumed) *)
  mutable unwalked : int;
      (* time of the last iteration, if it skipped the walk; [min_int]
         once a walk has run *)
  mutable tab : thread array;
      (* every spawned thread, indexed by id; [dummy_thread] from
         [next_id] up *)
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
    cur = -1;
    next_id = 0;
    stop_flag = false;
    idle = 0;
    busy = 0;
    low_skips = 0;
    hooks = [||];
    hook_due = min_int;
    unwalked = min_int;
    tab = Array.make 16 dummy_thread;
  }

let ncpus t = t.n_cpus

let now t = Clock.now t.clock
let clock t = t.clock

let enqueue t th =
  match th.prio with
  | High -> rq_push t.runq_high th.id th.ready_at
  | Normal -> rq_push t.runq_normal th.id th.ready_at
  | Low -> rq_push t.runq_low th.id th.ready_at

let spawn t ~name ~prio body =
  let id = t.next_id in
  let th =
    { id; name; prio; st = Runnable; ready_at = now t;
      k = No_k; body = Some body; cycles = 0; nap = 0; poll = no_poll }
  in
  if id = Array.length t.tab then begin
    let bigger = Array.make (2 * id) dummy_thread in
    Array.blit t.tab 0 bigger 0 id;
    t.tab <- bigger
  end;
  t.tab.(id) <- th;
  t.next_id <- id + 1;
  t.live <- t.live + 1;
  enqueue t th;
  th

let consume t n = Clock.spend t.clock n

let sleep n = if n > 0 then Effect.perform (Sleep n) else Effect.perform Yield
let yield () = Effect.perform Yield

let poll n ~ready =
  if n <= 0 then invalid_arg "Sched.poll: interval must be positive";
  Effect.perform (Poll (n, ready))

let current t =
  if t.cur < 0 then invalid_arg "Sched.current: no thread is running"
  else t.tab.(t.cur)

let world_stopped t = t.stopped

let stop_the_world t =
  if t.stopped then invalid_arg "Sched.stop_the_world: already stopped";
  t.stopped <- true;
  t.stop_at <- now t;
  (* The initiating thread must remain schedulable while the world is
     stopped: it drives the collection.  Boost it to High for the
     duration. *)
  if t.cur < 0 then t.initiator <- None
  else begin
    let th = t.tab.(t.cur) in
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

let on_advance_due t f =
  t.hooks <- Array.append t.hooks [| f |];
  t.hook_due <- min_int

let on_advance t f =
  on_advance_due t (fun tm ->
      f tm;
      min_int)

type tstate = Runnable | Running | Sleeping | Dead

let thread_state th =
  match th.st with
  | (Runnable : state) -> Runnable
  | Running -> Running
  | Sleeping -> Sleeping
  | Dead -> Dead

let thread_prio th = th.prio
let threads t = List.init t.next_id (Array.get t.tab)

let iter_threads t f =
  for i = 0 to t.next_id - 1 do
    f t.tab.(i)
  done

let debug_cpu_clocks t = Array.copy t.cpu_clock

(* The no-retention invariant: no queue holds a dead thread's id, and no
   dead thread keeps a continuation or a poll predicate (the memory a
   finished thread could otherwise pin).  Test hook — O(threads + queue
   lengths), never called on the hot path. *)
let debug_queues_clean t =
  let dead id = t.tab.(id).st = Dead in
  let rq_clean rq =
    let ok = ref true in
    for i = 0 to rq.len - 1 do
      if dead rq.ids.(rq_slot rq i) then ok := false
    done;
    !ok
  in
  let released = ref true in
  iter_threads t (fun th ->
      if th.st = Dead && (th.k != No_k || th.poll != no_poll) then
        released := false);
  !released
  && (not (Sleepq.exists t.sleepers dead))
  && rq_clean t.runq_high && rq_clean t.runq_normal && rq_clean t.runq_low

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
                th.k <- C k;
                Preempted)
        | Sleep n ->
            Some
              (fun (k : (a, outcome) Effect.Deep.continuation) ->
                th.k <- C k;
                th.nap <- n;
                Slept)
        | Poll (n, ready) ->
            Some
              (fun (k : (a, outcome) Effect.Deep.continuation) ->
                th.k <- C k;
                th.nap <- n;
                th.poll <- ready;
                Slept)
        | Yield ->
            Some
              (fun (k : (a, outcome) Effect.Deep.continuation) ->
                th.k <- C k;
                Yielded)
        | _ -> None);
  }

let exec th =
  match th.k with
  | C k ->
      th.k <- No_k;
      Effect.Deep.continue k ()
  | No_k -> (
      match th.body with
      | Some body ->
          th.body <- None;
          Effect.Deep.match_with body () (handler th)
      | None -> assert false)

(* Take the first thread in the queue that is allowed to run at time
   [tm]; threads inspected before it keep their relative order and are
   rotated to the tail (the rotation is semantically observable, so it
   is preserved).  Returns the thread's id, or -1 when nothing is ready;
   written as top-level tail recursion so the scan allocates nothing. *)
let rec take_ready_loop rq tm i n =
  if i >= n then -1
  else begin
    let h = rq.head in
    let id = rq.ids.(h) and r = rq.rdy.(h) in
    let h = h + 1 in
    rq.head <- (if h = Array.length rq.ids then 0 else h);
    rq.len <- rq.len - 1;
    if r <= tm then begin
      (* A thread actually left the queue: the cached bound may now be
         stale.  An empty queue resets to a clean max_int. *)
      if rq.len = 0 then begin
        rq.dirty <- false;
        rq.cached_min <- max_int
      end
      else rq.dirty <- true;
      id
    end
    else begin
      rq_append rq id r;
      take_ready_loop rq tm (i + 1) n
    end
  end

(* A fully failed scan pops and re-pushes every element, which restores
   the original order — so when the cached bound proves no queued thread
   is ready yet, skipping the scan entirely is indistinguishable from
   running it.  Idle processors poll the queues every advance; this
   makes that poll O(1). *)
let take_ready rq tm = if rq_min rq > tm then -1 else take_ready_loop rq tm 0 rq.len

let pick t tm =
  if t.stopped then take_ready t.runq_high tm
  else begin
    let id = take_ready t.runq_high tm in
    if id >= 0 then id
    else begin
      let boost = t.low_skips >= low_boost_every && t.runq_low.len > 0 in
      if boost then begin
        let id = take_ready t.runq_low tm in
        if id >= 0 then begin
          t.low_skips <- 0;
          id
        end
        else take_ready t.runq_normal tm
      end
      else begin
        let id = take_ready t.runq_normal tm in
        if id >= 0 then begin
          if t.runq_low.len > 0 then t.low_skips <- t.low_skips + 1;
          id
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
let stale_top t =
  (not (Sleepq.is_empty t.sleepers))
  && t.tab.(Sleepq.top t.sleepers).st <> Sleeping

let purge_stale t =
  if stale_top t then begin
    while stale_top t do
      ignore (Sleepq.pop t.sleepers)
    done;
    t.next_wake <- Sleepq.min_key t.sleepers
  end

(* Callers guard with [t.next_wake <= tm] so the no-op case costs one
   field compare and no call. *)
let wake_due t tm =
  while Sleepq.min_key t.sleepers <= tm do
    let th = t.tab.(Sleepq.pop t.sleepers) in
    if th.st = Sleeping then begin
      th.st <- Runnable;
      enqueue t th
    end
  done;
  t.next_wake <- Sleepq.min_key t.sleepers

let sleep_until t th at =
  th.st <- Sleeping;
  th.ready_at <- at;
  Sleepq.push t.sleepers ~key:at th.id;
  if at < t.next_wake then t.next_wake <- at

(* Call every advance hook at [tm], in installation order, and keep the
   smallest time any of them is next due.  A hook installed by a hook
   leaves the next iteration due. *)
let walk t tm =
  let hooks = t.hooks in
  let due = ref max_int in
  for i = 0 to Array.length hooks - 1 do
    let d = hooks.(i) tm in
    if d < !due then due := d
  done;
  t.unwalked <- min_int;
  t.hook_due <- (if t.hooks == hooks then !due else min_int)

(* An unready poller's wake-up on CPU [c]: the slice of no cycles a
   resumed thread that looks and sleeps again would record. *)
let[@inline] requeue_poller t c tm th =
  let clk = t.clock in
  clk.base <- tm;
  clk.used <- 0;
  t.cpu_clock.(c) <- tm + dispatch;
  sleep_until t th (tm + th.nap)

(* Advance idle CPU [c] from [tm] towards [next], the next time anything
   can change: by at least a cycle and at most a quantum, so a stopped
   world is re-polled cheaply. *)
let[@inline] idle_advance t c tm next =
  let next = Int.max (tm + 1) (Int.min next (tm + t.clock.quantum)) in
  t.idle <- t.idle + (next - tm);
  t.cpu_clock.(c) <- next

(* A quiet stretch: no thread has resumed since the last walk, the world
   runs and every runqueue is empty, so until the hooks are due an
   iteration can only advance an idle CPU or find one lone Normal
   poller's predicate false.  Each turn is the full iteration's work for
   that case, in the same order: [wake_due]'s pop, a [pick] that finds
   the poller alone (it leaves [low_skips] alone, as no Low thread is
   queued), and the idle advance with [min_ready_at] at [max_int] and no
   stale sleeper, the scheduler making none.  Anything else — a tie in
   wake time, a Low or High poller, a ready predicate, nothing asleep —
   leaves for the full iteration. *)
let quiet t ~until =
  let continue = ref true in
  while !continue do
    let c = min_cpu t in
    let tm = t.cpu_clock.(c) in
    if tm > until || tm >= t.hook_due then continue := false
    else if t.next_wake > tm then begin
      if t.next_wake = max_int then continue := false
      else begin
        idle_advance t c tm t.next_wake;
        t.unwalked <- tm
      end
    end
    else if Sleepq.second_key t.sleepers <= tm then continue := false
    else begin
      let th = t.tab.(Sleepq.top t.sleepers) in
      if
        th.st = Sleeping && th.prio = Normal && th.poll != no_poll
        && not (th.poll ())
      then begin
        ignore (Sleepq.pop t.sleepers);
        t.next_wake <- Sleepq.min_key t.sleepers;
        requeue_poller t c tm th;
        t.unwalked <- tm
      end
      else continue := false
    end
  done

let run t ~until =
  if t.cur >= 0 then invalid_arg "Sched.run: reentrant call";
  t.hook_due <- min_int;
  t.unwalked <- min_int;
  let continue = ref true in
  while !continue do
    if t.live = 0 then continue := false
    else begin
      if
        (not t.stopped) && t.runq_high.len = 0 && t.runq_normal.len = 0
        && t.runq_low.len = 0
      then quiet t ~until;
      let c = min_cpu t in
      let tm = t.cpu_clock.(c) in
      if tm > until then continue := false
      else begin
        if t.next_wake <= tm then wake_due t tm;
        let walked = tm >= t.hook_due in
        if walked then walk t tm else t.unwalked <- tm;
        let id = pick t tm in
        if id >= 0 then begin
          let th = t.tab.(id) in
          if th.poll != no_poll && not (th.poll ()) then
            requeue_poller t c tm th
          else begin
            (* A resumed thread reads what the hooks maintain. *)
            if not walked then walk t tm;
            let clk = t.clock in
            clk.base <- tm;
            clk.used <- 0;
            th.poll <- no_poll;
            clk.tid <- id;
            t.cur <- id;
            th.st <- Running;
            let outcome = exec th in
            t.cur <- -1;
            clk.tid <- -1;
            t.hook_due <- min_int;
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
            | Slept -> sleep_until t th (tm + used + th.nap)
          end
        end
        else begin
          (* This CPU is idle: advance it towards the earliest queued
             thread's ready time or sleeper wake-up. *)
          purge_stale t;
          let next = Int.min (min_ready_at t) t.next_wake in
          if
            next = max_int && t.runq_high.len = 0 && t.runq_normal.len = 0
            && t.runq_low.len = 0
            && Sleepq.is_empty t.sleepers
          then
            (* Nothing runnable and nothing will wake: no progress is
               possible. *)
            continue := false
          else idle_advance t c tm next
        end
      end
    end
  done;
  (* The last iteration's walk, if it was skipped: whatever the hooks
     maintain is then as the caller would have found it. *)
  if t.unwalked > min_int then walk t t.unwalked
(* Note: the cooperative stop flag is NOT raised here — [run] may be
   called again to continue the same simulation (warm-up followed by a
   measured window).  Threads parked at effect points simply resume. *)
