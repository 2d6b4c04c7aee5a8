module Vm = Cgc_runtime.Vm
module Mutator = Cgc_runtime.Mutator
module Sched = Cgc_sim.Sched
module Machine = Cgc_smp.Machine
module Cost = Cgc_smp.Cost
module Heap = Cgc_heap.Heap
module Txmix = Cgc_workloads.Txmix
module Obs = Cgc_obs.Obs
module Event = Cgc_obs.Event
module Prng = Cgc_util.Prng
module Sampler = Cgc_prof.Sampler

(* Arrival/shed events are emitted host-side, outside any simulated
   thread; they get a synthetic ring of their own. *)
let server_tid = -1

type cfg = {
  rate_per_s : float;
  arrival : Arrival.kind;
  queue_cap : int;
  workers : int;
  timeout_ms : float;
  slo_ms : float;
  slo_target : float;
  throttle_hi : int;
  throttle_lo : int;
}

(* A lighter transaction than the warehouse benchmarks: ~0.1 ms of
   compute plus a short burst of transient allocation, so a handful of
   workers saturate in the thousands of requests per second and a
   stop-the-world pause is many service times long. *)
let service : Txmix.profile =
  {
    live_lists = 16;
    list_len = 400; (* rescaled by create *)
    node_slots = 6;
    leaf_fanout = 3;
    leaf_slots = 8;
    transient_objs = 20;
    transient_slots = 8;
    mutations = 4;
    tx_work = 60_000;
    think_mean = 0;
    large_every = 50;
    large_slots = 256;
    junk_roots = true;
  }

(* Share of the heap the workers' resident sets fill, in total. *)
let resident_frac = 0.5

(* Idle-worker queue poll interval (~36 µs). *)
let poll_cycles = 20_000

let cfg ?(arrival = Arrival.Poisson) ?(queue_cap = 256) ?(workers = 4)
    ?(timeout_ms = 0.0) ?(slo_ms = 0.0) ?(slo_target = 0.999)
    ?(throttle_hi = 0) ?(throttle_lo = 0) ~rate_per_s () =
  if rate_per_s <= 0.0 then invalid_arg "Server.cfg: rate must be positive";
  if queue_cap < 1 then invalid_arg "Server.cfg: queue capacity < 1";
  if workers < 1 then invalid_arg "Server.cfg: workers < 1";
  if throttle_hi > 0 && throttle_lo >= throttle_hi then
    invalid_arg "Server.cfg: throttle_lo must be below throttle_hi";
  {
    rate_per_s;
    arrival;
    queue_cap;
    workers;
    timeout_ms;
    slo_ms;
    slo_target;
    throttle_hi;
    throttle_lo;
  }

type req = {
  id : int;
  arrival : int; (* backdated enqueue timestamp, cycles (= ts - pre) *)
  pre : int; (* front-end backoff charged before the true enqueue *)
  s_arr : int; (* stopped-world integral at enqueue *)
  route : Span.route; (* fleet routing decision that placed this request *)
}

type t = {
  cfg : cfg;
  vm : Vm.t;
  cycles_per_ms : float;
  obs : Obs.t;
  profile : Txmix.profile; (* residency-scaled service profile *)
  queue : req Queue.t;
  lats : Latency.t array;
  spans : Span.collector;
  (* Fleet routing decision keyed by arrival ordinal (the scripted
     stream position); single-VM runs default to [Span.local_route]. *)
  route : int -> Span.route;
  arr : Arrival.t;
  (* Brownout window [d0, d1) during which service times are inflated by
     the factor — the cluster's noisy-neighbour scenario. *)
  degrade : (int * int * float) option;
  mutable next_arrival : int;
  mutable next_pre : int;
  mutable next_id : int;
  mutable in_flight : int;
  mutable throttling : bool;
  mutable arrived : int;
  mutable admitted : int;
  mutable shed_full : int;
  mutable shed_throttled : int;
  mutable timed_out : int;
  mutable max_depth : int;
  (* Dispatch-granularity integral of stopped-world simulated time,
     maintained by the advance hook; requests sample it at enqueue
     and completion, the difference being the pause overlap. *)
  mutable stopped_cycles : int;
  mutable prev_now : int;
  mutable prev_stopped : bool;
  mutable probes_attached : bool;
  (* An idle worker's poll predicate, host state only (Sched.poll):
     work is queued, or the run is stopping. *)
  work_or_stop : unit -> bool;
}

let the_cfg t = t.cfg
let queue_depth t = Queue.length t.queue
let in_flight t = t.in_flight
let shed_now t = t.shed_full + t.shed_throttled

(* ------------------------------------------------------------------ *)
(* Admission (host side, from the scheduler hook)                      *)

let arrive ?(pre = 0) t ~ts =
  t.arrived <- t.arrived + 1;
  let depth = Queue.length t.queue in
  if t.cfg.throttle_hi > 0 then
    if depth >= t.cfg.throttle_hi then t.throttling <- true
    else if depth <= t.cfg.throttle_lo then t.throttling <- false;
  if depth >= t.cfg.queue_cap then begin
    t.shed_full <- t.shed_full + 1;
    Obs.instant_host t.obs ~arg:0 ~tid:server_tid ~ts Event.Req_shed
  end
  else if t.throttling then begin
    t.shed_throttled <- t.shed_throttled + 1;
    Obs.instant_host t.obs ~arg:1 ~tid:server_tid ~ts Event.Req_shed
  end
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let route = t.route (t.arrived - 1) in
    (* Causal-chain markers for requests the front end diverted: each is
       visible in the shard trace next to the enqueue it produced. *)
    if route.Span.attempts > 0 then
      Obs.instant_host t.obs ~arg:route.Span.attempts ~tid:server_tid ~ts
        Event.Req_retry;
    if route.Span.shard <> route.Span.first then
      Obs.instant_host t.obs ~arg:route.Span.first ~tid:server_tid ~ts
        Event.Req_redirect;
    if route.Span.hedged then
      Obs.instant_host t.obs
        ~arg:(if route.Span.hedge_win then 1 else 0)
        ~tid:server_tid ~ts Event.Req_hedge;
    (* Front-end delay (retry backoff) backdates the arrival stamp, so
       queueing and end-to-end latency charge the redirection time. *)
    Queue.push
      { id; arrival = ts - pre; pre; s_arr = t.stopped_cycles; route }
      t.queue;
    t.admitted <- t.admitted + 1;
    let depth = depth + 1 in
    if depth > t.max_depth then t.max_depth <- depth;
    Obs.instant_host t.obs ~arg:depth ~tid:server_tid ~ts Event.Req_arrive
  end

(* Due at the next arrival.  Between two calls the stopped-time pieces
   add up, and the stopped flag changes only while a thread runs, after
   which the scheduler calls this again. *)
let on_tick t now =
  if t.prev_stopped then
    t.stopped_cycles <- t.stopped_cycles + (now - t.prev_now);
  t.prev_now <- now;
  t.prev_stopped <- Sched.world_stopped (Vm.sched t.vm);
  while t.next_arrival <= now do
    arrive t ~ts:t.next_arrival ~pre:t.next_pre;
    t.next_arrival <- Arrival.next t.arr;
    t.next_pre <- Arrival.last_delay t.arr
  done;
  t.next_arrival

(* ------------------------------------------------------------------ *)
(* Workers (simulated mutator threads)                                 *)

let handle t m ~wid ~dir req ~start =
  t.in_flight <- t.in_flight + 1;
  let s_start = t.stopped_cycles in
  Obs.span_at t.obs ~arg:req.id ~ts:req.arrival ~dur:(start - req.arrival)
    Event.Req_start;
  Txmix.transaction t.profile m ~dir;
  (match t.degrade with
  | Some (d0, d1, factor) when start >= d0 && start < d1 ->
      (* Noisy neighbour: stretch the transaction by (factor - 1)× its
         own duration, as if the shard's CPUs were shared away. *)
      let served = Mutator.now_cycles m - start in
      if served > 0 && factor > 1.0 then
        Mutator.think m (int_of_float ((factor -. 1.0) *. float_of_int served))
  | _ -> ());
  let finish = Mutator.now_cycles m in
  t.in_flight <- t.in_flight - 1;
  let s_fin = t.stopped_cycles in
  (* The causal span.  [req.arrival] is backdated by the backoff, so the
     true enqueue stamp is [arrival + pre]; the blame components then
     sum to [finish - req.arrival] exactly, which we assert for every
     completed request.  The latency histograms are read off the same
     split. *)
  let enqueue = req.arrival + req.pre in
  let blame =
    Span.blame_of ~pre:req.pre ~enqueue ~start ~finish ~s_enq:req.s_arr
      ~s_start ~s_fin
  in
  assert (Span.blame_total blame = finish - req.arrival);
  Span.record t.spans { Span.route = req.route; enqueue; start; finish; blame };
  let e2e_ms =
    Latency.observe t.lats.(wid) ~slo_ms:t.cfg.slo_ms
      ~cycles_per_ms:t.cycles_per_ms blame
  in
  Obs.span_at t.obs
    ~arg:(int_of_float (e2e_ms *. 1000.0))
    ~ts:start ~dur:(finish - start) Event.Req_done

let rec dispatch t m ~wid ~dir =
  match Queue.take_opt t.queue with
  | None -> Sched.poll poll_cycles ~ready:t.work_or_stop
  | Some req ->
      let now = Mutator.now_cycles m in
      if
        t.cfg.timeout_ms > 0.0
        && float_of_int (now - req.arrival)
           > t.cfg.timeout_ms *. t.cycles_per_ms
      then begin
        t.timed_out <- t.timed_out + 1;
        Obs.instant t.obs ~arg:req.id Event.Req_timeout;
        dispatch t m ~wid ~dir
      end
      else handle t m ~wid ~dir req ~start:now

let worker t ~wid m =
  let dir = Txmix.build_resident t.profile m in
  while not (Mutator.stopped m) do
    dispatch t m ~wid ~dir
  done

(* ------------------------------------------------------------------ *)

let reset t =
  t.arrived <- 0;
  t.admitted <- 0;
  t.shed_full <- 0;
  t.shed_throttled <- 0;
  t.timed_out <- 0;
  t.max_depth <- Queue.length t.queue;
  Array.iter Latency.clear t.lats;
  Span.clear t.spans
(* The queue, throttle state and stopped-time integral deliberately
   survive: in-flight warm-up requests finish into the measured window,
   and the integral is only ever read as a difference. *)

let attach_probes t =
  match Vm.profiler t.vm with
  | None -> ()
  | Some p ->
      if not t.probes_attached then begin
        t.probes_attached <- true;
        Sampler.add_probe p ~name:"server-queue-depth" (fun () ->
            float_of_int (Queue.length t.queue));
        Sampler.add_probe p ~name:"server-in-flight" (fun () ->
            float_of_int t.in_flight)
      end

let create ?arrivals ?degrade ?(route = Span.local_route) (cfg : cfg) vm =
  let mach = Vm.machine vm in
  let cycles_per_ms = mach.Machine.cost.Cost.cycles_per_ms in
  (* An own PRNG root, offset from the VM's seed so the arrival stream
     is not the VM's mutator-split stream.  A cluster shard passes the
     balancer's routed timestamp slice as [arrivals] instead. *)
  let arr =
    match arrivals with
    | Some a -> a
    | None ->
        let root = Prng.create ((Vm.the_config vm).Vm.seed + 0x5e7fe1d) in
        Arrival.create cfg.arrival ~rate_per_s:cfg.rate_per_s ~cycles_per_ms
          ~rng:(Prng.split root)
  in
  let nslots = Heap.nslots (Vm.heap vm) in
  let target_slots =
    int_of_float (float_of_int nslots *. resident_frac)
    / Int.max 1 cfg.workers
  in
  let profile = Txmix.scale_residency service ~target_slots in
  let queue = Queue.create () in
  let sched = Vm.sched vm in
  let t =
    {
      cfg;
      vm;
      cycles_per_ms = float_of_int cycles_per_ms;
      obs = Vm.obs vm;
      profile;
      queue;
      lats = Array.init cfg.workers (fun _ -> Latency.create ());
      spans =
        Span.create
          ~cycles_per_ms:(float_of_int cycles_per_ms)
          ~seed:(Vm.the_config vm).Vm.seed;
      route;
      arr;
      degrade;
      next_arrival = 0;
      next_pre = 0;
      next_id = 0;
      in_flight = 0;
      throttling = false;
      arrived = 0;
      admitted = 0;
      shed_full = 0;
      shed_throttled = 0;
      timed_out = 0;
      max_depth = 0;
      stopped_cycles = 0;
      prev_now = 0;
      prev_stopped = false;
      probes_attached = false;
      work_or_stop =
        (fun () -> (not (Queue.is_empty queue)) || Sched.stop_requested sched);
    }
  in
  t.next_arrival <- Arrival.next t.arr;
  t.next_pre <- Arrival.last_delay t.arr;
  for wid = 0 to cfg.workers - 1 do
    Vm.spawn_mutator vm
      ~name:(Printf.sprintf "server-worker-%d" wid)
      (worker t ~wid)
  done;
  Sched.on_advance_due sched (fun now -> on_tick t now);
  Vm.on_reset vm (fun () -> reset t);
  attach_probes t;
  t

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

type totals = {
  arrived : int;
  admitted : int;
  shed_full : int;
  shed_throttled : int;
  timed_out : int;
  completed : int;
  slo_violations : int;
  max_depth : int;
  lat : Latency.t;
  spans : Span.summary;
}

let totals t =
  let lat =
    Array.fold_left Latency.merge (Latency.create ()) t.lats
  in
  {
    arrived = t.arrived;
    admitted = t.admitted;
    shed_full = t.shed_full;
    shed_throttled = t.shed_throttled;
    timed_out = t.timed_out;
    completed = Latency.handled lat;
    slo_violations = Latency.slo_violations lat;
    max_depth = t.max_depth;
    lat;
    spans = Span.summary t.spans;
  }

let slo_attainment tot =
  let resolved =
    tot.completed + tot.shed_full + tot.shed_throttled + tot.timed_out
  in
  if resolved = 0 then 1.0
  else
    float_of_int (tot.completed - tot.slo_violations) /. float_of_int resolved

let slo_breached t =
  t.cfg.slo_ms > 0.0 && slo_attainment (totals t) < t.cfg.slo_target
