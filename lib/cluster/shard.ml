module Vm = Cgc_runtime.Vm
module Sched = Cgc_sim.Sched
module Machine = Cgc_smp.Machine
module Cost = Cgc_smp.Cost
module Server = Cgc_server.Server
module Arrival = Cgc_server.Arrival
module Obs = Cgc_obs.Obs
module Event = Cgc_obs.Event
module Gstats = Cgc_core.Gstats
module Histogram = Cgc_util.Histogram

(* Chaos marks are emitted host-side like the server's arrival events. *)
let server_tid = -1

type cfg = {
  id : int;
  seed : int;
  heap_mb : float;
  ncpus : int;
  gc : Cgc_core.Config.t;
  trace : bool;
  trace_ring : int;
  server : Server.cfg;
  bin_ms : float;
  ms : float;
  incarnation : int;
  start_ms : float;
  fleet_ms : float;
  crashed : bool;
  brownout : (int * int * float) option;
  marks : (int * int) list;
}

type result = {
  id : int;
  seed : int;
  routed : int;
  totals : Server.totals;
  gc_cycles : int;
  max_pause_ms : float;
  stopped_ms : float array;
  sheds : int array;
  depth_max : int array;
  trace : string option;
  emitted : int;
  dropped : int;
  dropped_by_tid : (int * int) list;
  incarnation : int;
  start_ms : float;
  run_ms : float;
  crashed : bool;
  unfinished : int;
}

let nbins ~ms ~bin_ms =
  if bin_ms <= 0.0 then invalid_arg "Shard.nbins: bin_ms must be positive";
  Int.max 1 (int_of_float (Float.ceil (ms /. bin_ms)))

(* The timeline sampler: an advance hook registered after the
   server's, so by the time it runs at timestamp [now] the server has
   already admitted/shed every arrival up to [now].  It integrates
   stopped-world time the same way [Server.on_tick] does (previous
   stopped flag times the elapsed interval) and differences the
   monotone shed counter; both land in the bin of the interval start,
   which is exact to within one scheduler tick — far finer than a
   bin.  It is due at the next bin boundary: the stopped time and the
   queue-depth maxima between two calls fall in one bin.  [start_cycles]
   offsets an incarnation's local clock into the fleet timeline, so
   every incarnation of every shard bins onto the same fleet-wide
   axis. *)
let install_sampler vm srv ~bin_cycles ~start_cycles ~stopped ~sheds
    ~depth_max =
  let last = Array.length stopped - 1 in
  let bin t = Int.min last ((start_cycles + t) / bin_cycles) in
  let sched = Vm.sched vm in
  let prev_now = ref 0 in
  let prev_stopped = ref false in
  let prev_shed = ref 0 in
  Sched.on_advance_due sched (fun now ->
      if !prev_stopped then begin
        let b = bin !prev_now in
        stopped.(b) <- stopped.(b) + (now - !prev_now)
      end;
      prev_now := now;
      prev_stopped := Sched.world_stopped sched;
      let b = bin now in
      let s = Server.shed_now srv in
      if s <> !prev_shed then begin
        sheds.(b) <- sheds.(b) + (s - !prev_shed);
        prev_shed := s
      end;
      let d = Server.queue_depth srv in
      if d > depth_max.(b) then depth_max.(b) <- d;
      if b = last then max_int else ((b + 1) * bin_cycles) - start_cycles)

let run (cfg : cfg) ~arrivals ?delays ?routes () =
  let vm =
    Vm.create
      (Vm.config ~heap_mb:cfg.heap_mb ~ncpus:cfg.ncpus ~seed:cfg.seed
         ~gc:cfg.gc ~trace:cfg.trace ~trace_ring:cfg.trace_ring ())
  in
  let route =
    Option.map (fun r ord -> (r : Cgc_server.Span.route array).(ord)) routes
  in
  let srv =
    Server.create
      ~arrivals:(Arrival.scripted ?delays arrivals)
      ?degrade:cfg.brownout ?route cfg.server vm
  in
  List.iter
    (fun (ts, arg) ->
      Obs.instant_host (Vm.obs vm) ~arg ~tid:server_tid ~ts Event.Cluster_fault)
    cfg.marks;
  let mach = Vm.machine vm in
  let cycles_per_ms = mach.Machine.cost.Cost.cycles_per_ms in
  let nb = nbins ~ms:cfg.fleet_ms ~bin_ms:cfg.bin_ms in
  let bin_cycles =
    Int.max 1 (int_of_float (cfg.bin_ms *. float_of_int cycles_per_ms))
  in
  let start_cycles =
    int_of_float (cfg.start_ms *. float_of_int cycles_per_ms)
  in
  let stopped = Array.make nb 0 in
  let sheds = Array.make nb 0 in
  let depth_max = Array.make nb 0 in
  install_sampler vm srv ~bin_cycles ~start_cycles ~stopped ~sheds ~depth_max;
  Vm.run vm ~ms:cfg.ms;
  let gs = Vm.gc_stats vm in
  let pauses = gs.Gstats.pause_ms in
  let totals = Server.totals srv in
  {
    id = cfg.id;
    seed = cfg.seed;
    routed = Array.length arrivals;
    totals;
    gc_cycles = gs.Gstats.cycles;
    max_pause_ms =
      (if Histogram.count pauses = 0 then 0.0 else Histogram.max pauses);
    stopped_ms =
      Array.map
        (fun c -> float_of_int c /. float_of_int cycles_per_ms)
        stopped;
    sheds;
    depth_max;
    trace = (if cfg.trace then Some (Vm.trace_json vm) else None);
    emitted = Obs.emitted (Vm.obs vm);
    dropped = Obs.dropped (Vm.obs vm);
    dropped_by_tid =
      List.filter (fun (_, d) -> d > 0) (Obs.dropped_by_thread (Vm.obs vm));
    incarnation = cfg.incarnation;
    start_ms = cfg.start_ms;
    run_ms = cfg.ms;
    crashed = cfg.crashed;
    unfinished =
      totals.Server.admitted - totals.Server.completed
      - totals.Server.timed_out;
  }
