module Vm = Cgc_runtime.Vm
module Gstats = Cgc_core.Gstats
module Collector = Cgc_core.Collector
module Stats = Cgc_util.Stats
module Hist = Cgc_util.Histogram
module Machine = Cgc_smp.Machine
module Fence = Cgc_smp.Fence
module Pool = Cgc_packets.Pool
module Sched = Cgc_sim.Sched

type metrics = {
  label : string;
  throughput : float;
  avg_pause : float;
  max_pause : float;
  avg_mark : float;
  max_mark : float;
  avg_sweep : float;
  max_sweep : float;
  occupancy : float;
  conc_cards : float;
  stw_cards : float;
  cycles : int;
  premature : int;
  halted : int;
  cc_fail_pct : float;
  free_fail_pct : float;
  cards_left_pct : float;
  avg_cards_left : float;
  pre_rate : float;
  conc_rate : float;
  utilization : float;
  tracing_factor : float;
  fairness : float;
  cas_avg : float;
  cas_max : float;
  fences_total : int;
  pkt_in_use_hw : int;
  pkt_entries_hw : int;
  heap_slots : int;
  idle_frac : float;
}

let safe_max s = if Stats.count s = 0 then 0.0 else Stats.max s
let safe_hmax h = if Hist.count h = 0 then 0.0 else Hist.max h

(* Every metrics record extracted by [collect] is also appended here, so
   the driver can dump a whole experiment's results as CSV afterwards
   (cgcsim experiment NAME --metrics-out FILE).  Only the main domain
   touches this list directly: workers spawned by [par_map] divert their
   records into a per-item domain-local sink (below), and [par_map]
   splices the sinks back in item order, so the registry's contents are
   independent of how many domains ran the experiment. *)
let recorded_rev : metrics list ref = ref []

let sink_key : metrics list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let record m =
  match Domain.DLS.get sink_key with
  | Some sink -> sink := m :: !sink
  | None -> recorded_rev := m :: !recorded_rev

let recorded () = List.rev !recorded_rev
let reset_recorded () = recorded_rev := []

(* ----------------------- domain-parallel runs ----------------------- *)

(* Host-side parallelism only: every simulation (a VM and its Machine,
   Prng, Sched, Obs) is a self-contained value, so distinct items can
   run in distinct domains without sharing any mutable simulation state.
   The simulated results are identical at every job count; only host
   wall-clock changes.

   Since the cluster PR the domains come from the persistent
   work-stealing pool ({!Cgc_cluster.Dpool}) shared with the cluster
   layer and the bench matrix: --jobs resizes one process-wide pool
   instead of every par_map spawning and joining its own domains. *)

module Dpool = Cgc_cluster.Dpool

let set_jobs n = Dpool.set_size n
let jobs () = Dpool.global_size ()

let par_map (type a b) ?progress (items : a list) (f : a -> b) : b list =
  let items = Array.of_list items in
  let n = Array.length items in
  let results : b option array = Array.make n None in
  let records : metrics list array = Array.make n [] in
  let mu = Mutex.create () in
  Dpool.run (Dpool.global ()) ~n (fun i ->
      (match progress with
      | None -> ()
      | Some p ->
          Mutex.lock mu;
          (try p i items.(i)
           with e ->
             Mutex.unlock mu;
             raise e);
          Mutex.unlock mu);
      (* Divert this item's metrics records to a private sink so the
         global registry sees them in item order, not in domain
         completion order.  The previous sink is restored on the way
         out, so a nested par_map (which the pool runs inline) splices
         its records into the enclosing item's sink. *)
      let sink = ref [] in
      let saved = Domain.DLS.get sink_key in
      Domain.DLS.set sink_key (Some sink);
      let r =
        Fun.protect
          ~finally:(fun () -> Domain.DLS.set sink_key saved)
          (fun () -> f items.(i))
      in
      results.(i) <- Some r;
      records.(i) <- List.rev !sink);
  Array.iter (fun rs -> List.iter record rs) records;
  Array.to_list
    (Array.map (function Some r -> r | None -> assert false) results)

let metrics_csv_header =
  [ "label"; "throughput"; "avg_pause_ms"; "max_pause_ms"; "avg_mark_ms";
    "max_mark_ms"; "avg_sweep_ms"; "max_sweep_ms"; "occupancy"; "conc_cards";
    "stw_cards"; "cycles"; "premature"; "halted"; "cc_fail_pct";
    "free_fail_pct"; "cards_left_pct"; "avg_cards_left"; "pre_rate_kb_ms";
    "conc_rate_kb_ms"; "utilization"; "tracing_factor"; "fairness";
    "cas_avg"; "cas_max"; "fences_total"; "pkt_in_use_hw"; "pkt_entries_hw";
    "heap_slots"; "idle_frac" ]

let metrics_csv_row m =
  let f x = Printf.sprintf "%.4f" x and i = string_of_int in
  [ m.label; f m.throughput; f m.avg_pause; f m.max_pause; f m.avg_mark;
    f m.max_mark; f m.avg_sweep; f m.max_sweep; f m.occupancy; f m.conc_cards;
    f m.stw_cards; i m.cycles; i m.premature; i m.halted; f m.cc_fail_pct;
    f m.free_fail_pct; f m.cards_left_pct; f m.avg_cards_left; f m.pre_rate;
    f m.conc_rate; f m.utilization; f m.tracing_factor; f m.fairness;
    f m.cas_avg; f m.cas_max; i m.fences_total; i m.pkt_in_use_hw;
    i m.pkt_entries_hw; i m.heap_slots; f m.idle_frac ]

let runs_schema = "cgcsim-runs-v1"

let write_metrics_csv path =
  let rows = List.map metrics_csv_row (recorded ()) in
  Cgc_obs.Export.write_file path
    (Cgc_obs.Export.csv ~schema:runs_schema ~header:metrics_csv_header rows)

let pct_over samples threshold total =
  if total = 0 then 0.0
  else
    let fails = Array.fold_left (fun n x -> if x > threshold then n + 1 else n) 0 samples in
    100.0 *. float_of_int fails /. float_of_int total

let collect ~label vm =
  let st = Vm.gc_stats vm in
  let m =
  let mach = Vm.machine vm in
  let cost = mach.Machine.cost in
  let pl = Collector.pool (Vm.collector vm) in
  let sc = Vm.sched vm in
  let idle = Sched.idle_cycles sc and busy = Sched.busy_cycles sc in
  {
    label;
    throughput = Vm.throughput vm;
    avg_pause = Hist.mean st.Gstats.pause_ms;
    max_pause = safe_hmax st.Gstats.pause_ms;
    avg_mark = Hist.mean st.Gstats.mark_ms;
    max_mark = safe_hmax st.Gstats.mark_ms;
    avg_sweep = Hist.mean st.Gstats.sweep_ms;
    max_sweep = safe_hmax st.Gstats.sweep_ms;
    occupancy = Stats.mean st.Gstats.occupancy_end;
    conc_cards = Stats.mean st.Gstats.conc_cards;
    stw_cards = Stats.mean st.Gstats.stw_cards;
    cycles = st.Gstats.cycles;
    premature = st.Gstats.premature_cycles;
    halted = st.Gstats.halted_cycles;
    cc_fail_pct =
      pct_over (Stats.samples st.Gstats.cc_ratio) 0.20 st.Gstats.cycles;
    free_fail_pct =
      pct_over (Stats.samples st.Gstats.premature_free) 0.05 st.Gstats.cycles;
    cards_left_pct =
      pct_over (Stats.samples st.Gstats.cards_left) 0.5 st.Gstats.cycles;
    avg_cards_left = Stats.mean st.Gstats.cards_left;
    pre_rate = Gstats.alloc_rate_preconc st ~cost;
    conc_rate = Gstats.alloc_rate_conc st ~cost;
    utilization = Gstats.utilization st;
    tracing_factor = Stats.mean st.Gstats.tracing_factor;
    fairness = Stats.mean st.Gstats.fairness;
    cas_avg = Stats.mean st.Gstats.cas_per_mb;
    cas_max = safe_max st.Gstats.cas_per_mb;
    fences_total = Fence.total mach.Machine.fences;
    pkt_in_use_hw = Pool.max_in_use pl;
    pkt_entries_hw = Pool.max_entries pl;
    heap_slots = Cgc_heap.Heap.nslots (Vm.heap vm);
      idle_frac =
        (if idle + busy = 0 then 0.0
         else float_of_int idle /. float_of_int (idle + busy));
    }
  in
  record m;
  m

let quick_mode = ref false
let set_quick b = quick_mode := b
let quick () = !quick_mode

let specjbb_vm ~label ~gc ?(warehouses = 8) ?(heap_mb = 64.0)
    ?(warmup_ms = 1500.0) ?(ms = 4000.0) ?(seed = 1) ?(trace = false)
    ?trace_ring ?(profile = false) () =
  let vm =
    Cgc_workloads.Specjbb.setup ~warehouses ~gc ~heap_mb ~seed ~trace
      ?trace_ring ()
  in
  if profile then Vm.enable_profiler vm;
  Vm.run_measured vm ~warmup_ms ~ms;
  (collect ~label vm, vm)

let specjbb ~label ~gc ?warehouses ?heap_mb ?warmup_ms ?ms ?seed () =
  fst
    (specjbb_vm ~label ~gc ?warehouses ?heap_mb ?warmup_ms ?ms ?seed ())

let pbob_vm ~label ~gc ~warehouses ?terminals ?(heap_mb = 96.0) ?think_mean
    ?residency_at ?(warmup_ms = 1500.0) ?(ms = 5000.0) ?(seed = 1)
    ?(trace = false) ?trace_ring ?(profile = false) () =
  let vm =
    Cgc_workloads.Pbob.setup ~warehouses ~gc ?terminals ~heap_mb ~trace
      ?trace_ring ?think_mean ?residency_at ~seed ()
  in
  if profile then Vm.enable_profiler vm;
  Vm.run_measured vm ~warmup_ms ~ms;
  (collect ~label vm, vm)

let pbob ~label ~gc ~warehouses ?terminals ?heap_mb ?think_mean ?residency_at
    ?warmup_ms ?ms ?seed () =
  fst
    (pbob_vm ~label ~gc ~warehouses ?terminals ?heap_mb ?think_mean
       ?residency_at ?warmup_ms ?ms ?seed ())

let analyse_trace ?mmu_windows_ms vm =
  Cgc_prof.Analysis.analyse_events ?mmu_windows_ms
    ~cycles_per_us:(Vm.cycles_per_us vm)
    (Cgc_obs.Obs.events_array (Vm.obs vm))

let hdr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')
