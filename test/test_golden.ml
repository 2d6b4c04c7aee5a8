(* Golden digests of the collector's simulated behaviour, one per kernel
   path: the default concurrent collector, the compactor branch of the
   object scan, lazy sweep, stealing load balance, per-object fences,
   relaxed memory, and the generational front end.  Each digest hashes
   the run's Chrome trace together with a fingerprint of its counters
   (scheduler cycles, transactions, traced slots, cards, cycles, fences,
   CAS, packet operations and watermarks, pauses).  A host-side
   optimisation of the mark or sweep kernel must leave every one of them
   unchanged. *)

module Vm = Cgc_runtime.Vm
module Config = Cgc_core.Config
module Collector = Cgc_core.Collector
module Gstats = Cgc_core.Gstats
module Tracer = Cgc_core.Tracer
module Sched = Cgc_sim.Sched
module Machine = Cgc_smp.Machine
module Fence = Cgc_smp.Fence
module Weakmem = Cgc_smp.Weakmem
module Heap = Cgc_heap.Heap
module Pool = Cgc_packets.Pool
module Histogram = Cgc_util.Histogram
module Stats = Cgc_util.Stats
module Txmix = Cgc_workloads.Txmix
module Specjbb = Cgc_workloads.Specjbb

let fingerprint vm =
  let gs = Vm.gc_stats vm and mach = Vm.machine vm in
  let coll = Vm.collector vm in
  let pool = Collector.pool coll and tr = Collector.tracer coll in
  let fences =
    List.map (fun s -> string_of_int (Fence.get mach.Machine.fences s)) Fence.all_sites
  in
  let ints =
    [
      Sched.busy_cycles (Vm.sched vm);
      Sched.idle_cycles (Vm.sched vm);
      Vm.total_transactions vm;
      gs.Gstats.total_alloc_slots;
      gs.Gstats.cycles;
      gs.Gstats.halted_cycles;
      gs.Gstats.overflow_events;
      gs.Gstats.max_deferred_packets;
      gs.Gstats.minors;
      gs.Gstats.promoted_slots;
      mach.Machine.cas_ops;
      Pool.get_ops pool;
      Pool.put_ops pool;
      Pool.max_entries pool;
      Pool.max_in_use pool;
      Tracer.corruptions tr;
      Heap.free_slots (Vm.heap vm);
      Weakmem.pending_count mach.Machine.wm;
    ]
  in
  let sums =
    [
      Stats.sum gs.Gstats.traced_conc_slots;
      Stats.sum gs.Gstats.traced_stw_slots;
      Stats.sum gs.Gstats.conc_cards;
      Stats.sum gs.Gstats.stw_cards;
      Histogram.max gs.Gstats.pause_ms;
      Histogram.percentile gs.Gstats.pause_ms 50.0;
    ]
  in
  String.concat " "
    (List.map string_of_int ints @ fences
    @ List.map (Printf.sprintf "%.6f") sums)

(* A small SPECjbb-like run: four warehouses on four CPUs at 60%
   residency of a 12 MB heap, traced. *)
let run ?(wm_mode = Weakmem.Sc) ?(fence_policy = Heap.Batched) ?(ms = 150.0)
    gc =
  let vm =
    Vm.create
      (Vm.config ~heap_mb:12.0 ~ncpus:4 ~seed:3 ~gc ~wm_mode ~fence_policy
         ~trace:true ())
  in
  let nslots = Heap.nslots (Vm.heap vm) in
  let profile =
    Txmix.scale_residency Specjbb.base_profile
      ~target_slots:(int_of_float (float_of_int nslots *. 0.6) / 4)
  in
  for w = 1 to 4 do
    Vm.spawn_mutator vm ~name:(Printf.sprintf "w%d" w) (Txmix.body profile)
  done;
  Vm.run vm ~ms;
  Digest.to_hex (Digest.string (Vm.trace_json vm ^ "\n" ^ fingerprint vm))

let cgc = Config.default

(* Digests recorded before the packet-granular kernel went in. *)
let cases =
  [
    ("cgc", "7a426c6ae41a62296160ff4bf15f5393", fun () -> run cgc);
    ( "compaction",
      "19ca5f3e74b21ac85d9feecc6b59b680",
      fun () -> run { cgc with Config.compaction = true } );
    ( "lazy sweep",
      "f9664b80f3570c6acce85f98f4c16d88",
      fun () -> run { cgc with Config.lazy_sweep = true } );
    (* Stealing load balance only drives the stop-the-world mark. *)
    ( "stealing",
      "54b20acecf473040e77ddcbf939f4483",
      fun () -> run { Config.stw with Config.load_balance = Config.Stealing } );
    ( "naive fences",
      "5a4d6750690d431fc4772bf5ff1c4010",
      fun () -> run ~fence_policy:Heap.Naive cgc );
    ( "relaxed memory",
      "e8db257d748705145f2d2f6bd15a0db6",
      fun () -> run ~wm_mode:Weakmem.Relaxed cgc );
    (* Long enough for the major collector to start under the nursery. *)
    ("gen", "7327edc5c941f8dd47d882f5b90ef722", fun () -> run ~ms:400.0 Config.gen);
  ]

let () =
  Alcotest.run "golden"
    [
      ( "golden",
        List.map
          (fun (name, digest, f) ->
            Alcotest.test_case name `Quick (fun () ->
                Alcotest.check Alcotest.string name digest (f ())))
          cases );
    ]
