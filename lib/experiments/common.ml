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

(* ----------------------- domain-parallel runs ----------------------- *)

(* Host-side parallelism only: every simulation (a VM and its Machine,
   Prng, Sched, Obs) is a self-contained value, so distinct items can
   run in distinct domains without sharing any mutable simulation state.
   The simulated results are identical at every job count; only host
   wall-clock changes.  The domains are {!Cgc_cluster.Dpool}'s, sized
   by --jobs. *)
let par_map items f =
  Array.to_list (Cgc_cluster.Dpool.map f (Array.of_list items))

(* The cgcsim-runs-v1 columns, each with the formatter of its cell. *)
let columns =
  let f get m = Printf.sprintf "%.4f" (get m)
  and i get m = string_of_int (get m) in
  [ ("label", fun m -> m.label);
    ("throughput", f (fun m -> m.throughput));
    ("avg_pause_ms", f (fun m -> m.avg_pause));
    ("max_pause_ms", f (fun m -> m.max_pause));
    ("avg_mark_ms", f (fun m -> m.avg_mark));
    ("max_mark_ms", f (fun m -> m.max_mark));
    ("avg_sweep_ms", f (fun m -> m.avg_sweep));
    ("max_sweep_ms", f (fun m -> m.max_sweep));
    ("occupancy", f (fun m -> m.occupancy));
    ("conc_cards", f (fun m -> m.conc_cards));
    ("stw_cards", f (fun m -> m.stw_cards));
    ("cycles", i (fun m -> m.cycles));
    ("premature", i (fun m -> m.premature));
    ("halted", i (fun m -> m.halted));
    ("cc_fail_pct", f (fun m -> m.cc_fail_pct));
    ("free_fail_pct", f (fun m -> m.free_fail_pct));
    ("cards_left_pct", f (fun m -> m.cards_left_pct));
    ("avg_cards_left", f (fun m -> m.avg_cards_left));
    ("pre_rate_kb_ms", f (fun m -> m.pre_rate));
    ("conc_rate_kb_ms", f (fun m -> m.conc_rate));
    ("utilization", f (fun m -> m.utilization));
    ("tracing_factor", f (fun m -> m.tracing_factor));
    ("fairness", f (fun m -> m.fairness));
    ("cas_avg", f (fun m -> m.cas_avg));
    ("cas_max", f (fun m -> m.cas_max));
    ("fences_total", i (fun m -> m.fences_total));
    ("pkt_in_use_hw", i (fun m -> m.pkt_in_use_hw));
    ("pkt_entries_hw", i (fun m -> m.pkt_entries_hw));
    ("heap_slots", i (fun m -> m.heap_slots));
    ("idle_frac", f (fun m -> m.idle_frac)) ]

let runs_schema = "cgcsim-runs-v1"

let write_metrics_csv ms path =
  Cgc_obs.Export.write_file path
    (Cgc_obs.Export.csv ~schema:runs_schema ~header:(List.map fst columns)
       (List.map (fun m -> List.map (fun (_, cell) -> cell m) columns) ms))

let pct_over samples threshold total =
  if total = 0 then 0.0
  else
    let fails = Array.fold_left (fun n x -> if x > threshold then n + 1 else n) 0 samples in
    100.0 *. float_of_int fails /. float_of_int total

let collect ~label vm =
  let st = Vm.gc_stats vm in
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

let quick_mode = ref false
let set_quick b = quick_mode := b
let quick () = !quick_mode

let specjbb ~label ~gc ?(warehouses = 8) ?(warmup_ms = 1500.0)
    ?(ms = 4000.0) ?(trace = false) ?trace_ring () =
  let vm =
    Cgc_workloads.Specjbb.setup ~warehouses ~gc ~trace ?trace_ring ()
  in
  Vm.run_measured vm ~warmup_ms ~ms;
  (collect ~label vm, vm)

let pbob ~label ~gc ~warehouses ?(heap_mb = 96.0) ?think_mean ?residency_at
    ?(warmup_ms = 1500.0) ?(ms = 5000.0) ?(trace = false) ?trace_ring () =
  let vm =
    Cgc_workloads.Pbob.setup ~warehouses ~gc ~heap_mb ~trace ?trace_ring
      ?think_mean ?residency_at ()
  in
  Vm.run_measured vm ~warmup_ms ~ms;
  (collect ~label vm, vm)

let analyse_trace vm =
  Cgc_prof.Analysis.analyse_events
    ~cycles_per_us:(Vm.cycles_per_us vm)
    (Cgc_obs.Obs.events_array (Vm.obs vm))

let hdr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')
