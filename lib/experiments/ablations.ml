(* Ablation studies for the design choices the paper calls out.

   - Fence batching (section 5): one fence per retired allocation cache
     and one per returned work packet, versus the naive placement of one
     fence per object allocated and per object marked.
   - Second concurrent card-cleaning pass (section 2.1, footnote 2).
   - Lazy sweep (section 7 future work): move the bitwise sweep out of
     the stop-the-world pause.
   - Work packets versus Endo-style work-stealing mark stacks for the
     parallel stop-the-world mark (section 4.4). *)

module Table = Cgc_util.Table
module Config = Cgc_core.Config
module Fence = Cgc_smp.Fence
module Vm = Cgc_runtime.Vm
module Machine = Cgc_smp.Machine

let ms () = if Common.quick () then 2000.0 else 4000.0

(* SPECjbb's 8 warehouses on a VM built from [cfg], for the Vm config
   knobs Specjbb.setup does not expose. *)
let specjbb_on cfg ~warmup_ms ~ms =
  let vm = Vm.create cfg in
  Cgc_workloads.Specjbb.spawn_warehouses vm ~warehouses:8
    ~residency_at:(8, 0.6);
  Vm.run_measured vm ~warmup_ms ~ms;
  vm

let run_policy label fence_policy =
  let vm =
    specjbb_on
      (Vm.config ~heap_mb:64.0 ~ncpus:4 ~gc:Config.default ~fence_policy ())
      ~warmup_ms:1000.0 ~ms:(ms ())
  in
  (Common.collect ~label vm, Vm.machine vm)

let fence_batching () =
  Common.hdr
    "Ablation — fence batching (section 5): batched protocols vs one fence per operation";
  let batched, bm = run_policy "batched" Cgc_heap.Heap.Batched in
  let naive, nm = run_policy "naive" Cgc_heap.Heap.Naive in
  let t =
    Table.create ~title:"(fences counted over the measured window)"
      ~header:
        [ "policy"; "alloc fences"; "mark fences"; "packet fences";
          "total fences"; "tx/s" ]
  in
  let row label (m : Common.metrics) mach =
    let f = mach.Machine.fences in
    Table.add_row t
      [ label;
        string_of_int
          (Fence.get f Fence.Alloc_batch + Fence.get f Fence.Naive_alloc);
        string_of_int (Fence.get f Fence.Naive_mark);
        string_of_int
          (Fence.get f Fence.Packet_return + Fence.get f Fence.Packet_defer);
        string_of_int m.Common.fences_total;
        Printf.sprintf "%.0f" m.Common.throughput ]
  in
  row "batched (paper)" batched bm;
  row "naive" naive nm;
  Table.print t;
  let reduction =
    float_of_int naive.Common.fences_total
    /. float_of_int (max 1 batched.Common.fences_total)
  in
  Printf.printf
    "Batching cuts fence instructions by %.1fx and recovers %.1f%% throughput.\n"
    reduction
    (100.0
    *. ((batched.Common.throughput /. Float.max 1.0 naive.Common.throughput)
       -. 1.0));
  [ batched; naive ]

let card_passes () =
  Common.hdr
    "Ablation — second concurrent card-cleaning pass (section 2.1, footnote 2)";
  let run label passes =
    let gc = { Config.default with Config.card_passes = passes } in
    fst (Common.specjbb ~label ~gc ~ms:(ms ()) ())
  in
  let one = run "1 pass" 1 in
  let two = run "2 passes" 2 in
  let t =
    Table.create ~title:""
      ~header:
        [ "passes"; "conc cards"; "stw cards"; "avg pause"; "max pause"; "tx/s" ]
  in
  List.iter
    (fun (m : Common.metrics) ->
      Table.add_row t
        [ m.Common.label;
          Printf.sprintf "%.0f" m.Common.conc_cards;
          Printf.sprintf "%.0f" m.Common.stw_cards;
          Table.fms m.Common.avg_pause;
          Table.fms m.Common.max_pause;
          Printf.sprintf "%.0f" m.Common.throughput ])
    [ one; two ];
  Table.print t;
  Printf.printf
    "Paper (footnote 2): a second pass further reduces pause time without a\n\
     noticeable throughput impact.\n";
  [ one; two ]

let lazy_sweep () =
  Common.hdr "Ablation — lazy sweep (section 7 future work)";
  let run label lazy_sweep =
    let gc = { Config.default with Config.lazy_sweep } in
    fst (Common.specjbb ~label ~gc ~ms:(ms ()) ())
  in
  let eager = run "in-pause sweep" false in
  let lzy = run "lazy sweep" true in
  let t =
    Table.create ~title:""
      ~header:[ "sweep"; "avg pause"; "max pause"; "avg sweep-in-pause"; "tx/s" ]
  in
  List.iter
    (fun (m : Common.metrics) ->
      Table.add_row t
        [ m.Common.label;
          Table.fms m.Common.avg_pause;
          Table.fms m.Common.max_pause;
          Table.fms m.Common.avg_sweep;
          Printf.sprintf "%.0f" m.Common.throughput ])
    [ eager; lzy ];
  Table.print t;
  Printf.printf
    "The paper projects that deferring sweep out of the pause brings the pause\n\
     close to the mark component alone (section 6.1 / section 7).\n";
  [ eager; lzy ]

let stealing () =
  Common.hdr
    "Ablation — work packets vs work-stealing mark stacks for the STW mark (section 4.4)";
  let run label load_balance =
    let gc = { Config.stw with Config.load_balance } in
    fst (Common.specjbb ~label ~gc ~ms:(ms ()) ())
  in
  let packets = run "work packets" Config.Packets in
  let steal = run "work stealing" Config.Stealing in
  let t =
    Table.create ~title:"(both as the load balancer of the parallel STW mark)"
      ~header:[ "mechanism"; "avg pause"; "max pause"; "avg mark"; "CAS/MB avg" ]
  in
  List.iter
    (fun (m : Common.metrics) ->
      Table.add_row t
        [ m.Common.label;
          Table.fms m.Common.avg_pause;
          Table.fms m.Common.max_pause;
          Table.fms m.Common.avg_mark;
          Printf.sprintf "%.0f" m.Common.cas_avg ])
    [ packets; steal ];
  Table.print t;
  Printf.printf
    "On this chain-heavy workload private mark stacks beat packets for the pure\n\
     STW mark (packets pay pool synchronisation on every hand-off), while packets\n\
     need only the Empty-pool counter for termination where stealing needs global\n\
     work and in-flight counters — the trade-off sections 4.4 and 7 discuss.\n\
     Packets' real advantage is the incremental phase, where the set of tracing\n\
     participants is large and dynamic.\n";
  [ packets; steal ]

let compaction () =
  Common.hdr
    "Ablation — incremental compaction (section 2.3): evacuating one area per cycle";
  let run label compaction =
    let gc = { Config.default with Config.compaction } in
    Common.specjbb ~label ~gc ~warmup_ms:1000.0 ~ms:(ms ()) ()
  in
  let off, _ = run "no compaction" false in
  let on_, vm = run "evacuation on" true in
  let cp = Cgc_core.Collector.compactor (Vm.collector vm) in
  let t =
    Table.create ~title:""
      ~header:
        [ "mode"; "avg pause"; "max pause"; "tx/s"; "evacuated objs";
          "fixups" ]
  in
  Table.add_row t
    [ "no compaction"; Table.fms off.Common.avg_pause;
      Table.fms off.Common.max_pause;
      Printf.sprintf "%.0f" off.Common.throughput; "--"; "--" ];
  Table.add_row t
    [ "evacuation on"; Table.fms on_.Common.avg_pause;
      Table.fms on_.Common.max_pause;
      Printf.sprintf "%.0f" on_.Common.throughput;
      string_of_int (Cgc_core.Compact.evacuated_objects cp);
      string_of_int (Cgc_core.Compact.fixups cp) ]
  ;
  Table.print t;
  Printf.printf
    "Evacuating 1/16 of the heap per cycle defragments continuously for a small,
     bounded addition to the pause (the companion ISMM 2002 paper's design).
";
  [ off; on_ ]

let itanium () =
  Common.hdr
    "Section 6.1 weak-ordering run — the Itanium experiment, on relaxed memory";
  (* The paper repeated the SPECjbb comparison on a 4-way IA-64 server and
     found the same reductions.  We run the full collector with the store
     buffers actually reordering (Relaxed mode) instead of only charging
     fence costs.  Smaller heap: relaxed simulation is host-expensive. *)
  let run label gc =
    let vm =
      specjbb_on
        (Vm.config ~heap_mb:24.0 ~ncpus:4 ~gc
           ~wm_mode:Cgc_smp.Weakmem.Relaxed ())
        ~warmup_ms:1500.0
        ~ms:(if Common.quick () then 1500.0 else 3000.0)
    in
    (* Quiesce the store buffers before the host-side verification: the
       committed view mid-run legitimately lags in-flight stores. *)
    Cgc_smp.Weakmem.fence_all (Vm.machine vm).Cgc_smp.Machine.wm;
    let corruptions =
      Cgc_core.Tracer.corruptions
        (Cgc_core.Collector.tracer (Vm.collector vm))
    in
    let bad = Cgc_core.Collector.check_reachable (Vm.collector vm) in
    (Common.collect ~label vm, corruptions, List.length bad)
  in
  let stw, _, _ = run "STW" Config.stw in
  let cgc, corr, bad = run "CGC" Config.default in
  let t =
    Table.create ~title:"(24 MB heap, store buffers reordering for real)"
      ~header:[ "collector"; "avg pause"; "max pause"; "tx/s" ]
  in
  List.iter
    (fun (m : Common.metrics) ->
      Table.add_row t
        [ m.Common.label; Table.fms m.Common.avg_pause;
          Table.fms m.Common.max_pause;
          Printf.sprintf "%.0f" m.Common.throughput ])
    [ stw; cgc ];
  Table.print t;
  Printf.printf
    "Tracer corruptions under reordering: %d; unreachable-graph violations: %d\n"
    corr bad;
  print_endline
    "(both must be 0 - the section 5 protocols hold on weakly-ordered memory).";
  print_endline
    "Paper: 'both the reduction in pause times and the reduction in the overall";
  print_endline "SPECjbb throughput score are similar' on the 4-way Itanium.";
  [ stw; cgc ]
