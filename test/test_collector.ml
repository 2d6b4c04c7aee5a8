(* End-to-end collector tests: both collector modes on live VMs, data
   integrity across many cycles, metering formula behaviour, allocate-
   black, floating garbage, lazy sweep, out-of-memory, determinism. *)

module Vm = Cgc_runtime.Vm
module Mutator = Cgc_runtime.Mutator
module Collector = Cgc_core.Collector
module Config = Cgc_core.Config
module Metering = Cgc_core.Metering
module Gstats = Cgc_core.Gstats
module Tracer = Cgc_core.Tracer
module Stats = Cgc_util.Stats
module Hist = Cgc_util.Histogram
module Objgraph = Cgc_workloads.Objgraph

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

(* A churn worker: keeps several resident lists (a bushy-enough graph for
   tracing to parallelise), replaces their heads, allocates transients.
   Validates its resident lists periodically. *)
let n_lists = 8

let churn_worker ?(resident = 1500) ?(node = 12) ?(validate = true) () m =
  (* roots 0..7: resident list heads; 8: transient chain; 9,10: pins *)
  let per_list = max 1 (resident / n_lists) in
  for i = 0 to n_lists - 1 do
    let head = Objgraph.build_list m ~len:per_list ~node_slots:node in
    Mutator.root_set m i head
  done;
  let tx = ref 0 in
  while not (Mutator.stopped m) do
    incr tx;
    (* transient chain *)
    let prev = ref 0 in
    for _ = 1 to 6 do
      let o = Mutator.alloc m ~nrefs:1 ~size:8 in
      if !prev <> 0 then Mutator.set_ref m o 0 !prev;
      prev := o;
      Mutator.root_set m 8 o
    done;
    (* replace a resident head, preserving length *)
    let li = !tx mod n_lists in
    let old = Mutator.root_get m li in
    let tail = Mutator.get_ref m old 0 in
    Mutator.root_set m 9 tail;
    let fresh = Mutator.alloc m ~nrefs:1 ~size:node in
    Mutator.set_ref m fresh 0 tail;
    Mutator.root_set m li fresh;
    Mutator.root_set m 8 0;
    Mutator.root_set m 9 0;
    Mutator.work m 8_000;
    if validate && !tx mod 500 = 0 then begin
      let len = Objgraph.list_length m (Mutator.root_get m li) in
      if len <> per_list then
        Alcotest.failf "resident list corrupted: %d instead of %d" len per_list
    end;
    Mutator.tx_done m
  done

let run_vm ?(heap_mb = 8.0) ?(ncpus = 4) ?(workers = 4) ?(ms = 800.0)
    ?resident ?gc ?fence_policy () =
  let gc = match gc with Some g -> g | None -> Config.default in
  let vm = Vm.create (Vm.config ~heap_mb ~ncpus ~gc ?fence_policy ()) in
  for i = 1 to workers do
    Vm.spawn_mutator vm
      ~name:(Printf.sprintf "w%d" i)
      (churn_worker ?resident ())
  done;
  Vm.run vm ~ms;
  vm

let test_cgc_collects_and_stays_sound () =
  let vm = run_vm () in
  let st = Vm.gc_stats vm in
  check cb "cycles happened" true (st.Gstats.cycles >= 3);
  check cb "transactions happened" true (Vm.total_transactions vm > 1000);
  check (Alcotest.list (Alcotest.pair ci ci)) "reachable heap intact" []
    (Collector.check_reachable (Vm.collector vm));
  check ci "no tracer corruption" 0
    (Tracer.corruptions (Collector.tracer (Vm.collector vm)))

let test_stw_collects_and_stays_sound () =
  let vm = run_vm ~gc:Config.stw () in
  let st = Vm.gc_stats vm in
  check cb "cycles happened" true (st.Gstats.cycles >= 3);
  check ci "no concurrent completions in STW mode" 0 st.Gstats.premature_cycles;
  check (Alcotest.list (Alcotest.pair ci ci)) "reachable heap intact" []
    (Collector.check_reachable (Vm.collector vm))

let test_cgc_shorter_pauses_than_stw () =
  (* Paper-scale configuration (the headline claim): a SPECjbb-like
     workload at ~60% residency, with a warm-up period so the metering
     estimators have converged. *)
  let measure gc =
    let vm =
      Cgc_workloads.Specjbb.setup ~warehouses:4 ~gc ~heap_mb:32.0 ()
    in
    Vm.run_measured vm ~warmup_ms:1500.0 ~ms:3000.0;
    vm
  in
  let cgc = measure Config.default in
  let stw = measure Config.stw in
  let p vm = Hist.mean (Vm.gc_stats vm).Gstats.pause_ms in
  let mark vm = Hist.mean (Vm.gc_stats vm).Gstats.mark_ms in
  check cb "CGC pauses well below STW pauses" true (p cgc < 0.6 *. p stw);
  check cb "CGC mark component far below STW's" true
    (mark cgc < 0.35 *. mark stw)

let test_stw_mode_has_no_write_barrier () =
  let vm = run_vm ~gc:Config.stw ~ms:300.0 () in
  let st = Vm.gc_stats vm in
  check cb "no concurrent cards in STW mode" true
    (Stats.count st.Gstats.conc_cards = 0
    || Stats.mean st.Gstats.conc_cards = 0.0)

let test_pause_components_sum () =
  let vm = run_vm () in
  let st = Vm.gc_stats vm in
  let sum = Hist.mean st.Gstats.mark_ms +. Hist.mean st.Gstats.sweep_ms in
  let pause = Hist.mean st.Gstats.pause_ms in
  check cb "mark + sweep ~ pause" true
    (sum <= pause +. 0.01 && sum >= 0.7 *. pause)

let test_occupancy_measured () =
  let vm = run_vm () in
  let st = Vm.gc_stats vm in
  let occ = Stats.mean st.Gstats.occupancy_end in
  check cb "occupancy in a plausible band" true (occ > 0.05 && occ < 0.95)

let test_floating_garbage_nonnegative () =
  (* CGC retains at least as much as STW does (floating garbage >= 0,
     within noise). *)
  let cgc = run_vm ~ms:1500.0 () in
  let stw = run_vm ~ms:1500.0 ~gc:Config.stw () in
  let occ vm = Stats.mean (Vm.gc_stats vm).Gstats.occupancy_end in
  check cb "CGC occupancy >= STW occupancy - eps" true
    (occ cgc >= occ stw -. 0.02)

let test_lazy_sweep_mode () =
  let gc = { Config.default with Config.lazy_sweep = true } in
  let vm = run_vm ~gc ~ms:1000.0 () in
  let st = Vm.gc_stats vm in
  check cb "cycles happened" true (st.Gstats.cycles >= 2);
  check cb "sweep component (almost) eliminated from pause" true
    (Hist.mean st.Gstats.sweep_ms < 0.1);
  check (Alcotest.list (Alcotest.pair ci ci)) "heap intact under lazy sweep" []
    (Collector.check_reachable (Vm.collector vm))

(* The lazy sweep's finish at a cycle start is a run of preemption
   points.  A second CPU that reaches the start meanwhile must not start
   the same cycle again: cycle numbers rise by one, and each cycle starts
   after the previous one ended. *)
let test_lazy_sweep_cycles_in_order () =
  let gc = { Config.default with Config.lazy_sweep = true } in
  let vm =
    Cgc_workloads.Specjbb.setup ~warehouses:8 ~gc ~heap_mb:16.0 ~ncpus:4
      ~seed:1 ~trace:true ()
  in
  Vm.run vm ~ms:300.0;
  let last = ref 0 and ended = ref true in
  List.iter
    (fun (e : Cgc_obs.Event.t) ->
      match e.Cgc_obs.Event.code with
      | Cgc_obs.Event.Cycle_start ->
          check ci "cycle number rises by one" (!last + 1) e.Cgc_obs.Event.arg;
          check cb
            (Printf.sprintf "cycle %d ended before cycle %d started" !last
               e.Cgc_obs.Event.arg)
            true !ended;
          last := e.Cgc_obs.Event.arg;
          ended := false
      | Cgc_obs.Event.Cycle_end ->
          check ci "the cycle that ends is the last one started" !last
            e.Cgc_obs.Event.arg;
          ended := true
      | _ -> ())
    (Cgc_obs.Obs.events (Vm.obs vm));
  check cb "cycles happened" true (!last >= 2)

let test_two_card_passes () =
  let gc = { Config.default with Config.card_passes = 2 } in
  let vm = run_vm ~gc ~ms:1000.0 () in
  let st = Vm.gc_stats vm in
  check cb "cycles happened" true (st.Gstats.cycles >= 2);
  check (Alcotest.list (Alcotest.pair ci ci)) "heap intact with 2 passes" []
    (Collector.check_reachable (Vm.collector vm))

let test_naive_fence_policy_end_to_end () =
  let vm = run_vm ~fence_policy:Cgc_heap.Heap.Naive ~ms:400.0 () in
  let m = Vm.machine vm in
  let f = m.Cgc_smp.Machine.fences in
  check cb "naive-alloc fences dominate" true
    (Cgc_smp.Fence.get f Cgc_smp.Fence.Naive_alloc
    > 10 * Cgc_smp.Fence.get f Cgc_smp.Fence.Alloc_batch);
  check (Alcotest.list (Alcotest.pair ci ci)) "heap intact" []
    (Collector.check_reachable (Vm.collector vm))

let test_fence_batching_saves_fences () =
  let batched = run_vm ~ms:400.0 () in
  let naive = run_vm ~fence_policy:Cgc_heap.Heap.Naive ~ms:400.0 () in
  let total vm =
    Cgc_smp.Fence.total (Vm.machine vm).Cgc_smp.Machine.fences
  in
  check cb "batching cuts fences by at least 5x" true
    (total naive > 5 * total batched)

let test_out_of_memory () =
  (* live set exceeds the heap: the collector must raise Out_of_memory
     rather than corrupt. *)
  let vm = Vm.create (Vm.config ~heap_mb:1.0 ~ncpus:1 ()) in
  let raised = ref false in
  Vm.spawn_mutator vm ~name:"greedy" (fun m ->
      try
        let rec grow prev n =
          if n > 1_000_000 then ()
          else begin
            let o = Mutator.alloc m ~nrefs:1 ~size:64 in
            Mutator.set_ref m o 0 prev;
            Mutator.root_set m 0 o;
            grow o (n + 1)
          end
        in
        grow 0 0
      with Collector.Out_of_memory d ->
        raised := true;
        (* The ladder must have been climbed to the top, and the
           diagnostic must describe the failing request. *)
        check ci "all three rungs climbed" 3 d.Collector.oom_rungs;
        check ci "request size recorded" 64 d.Collector.oom_request);
  Vm.run vm ~ms:10_000.0;
  check cb "Out_of_memory raised" true !raised;
  let st = Vm.gc_stats vm in
  check cb "force-finish rung counted" true
    (st.Cgc_core.Gstats.degrade_force_finish > 0);
  check cb "full-STW rung counted" true
    (st.Cgc_core.Gstats.degrade_full_stw > 0);
  check cb "compaction rung counted" true
    (st.Cgc_core.Gstats.degrade_compact > 0);
  check cb "OOM counted" true (st.Cgc_core.Gstats.oom_raised > 0)

let test_force_collect_frees_garbage () =
  let vm = Vm.create (Vm.config ~heap_mb:4.0 ~ncpus:1 ()) in
  let freed = ref 0 in
  Vm.spawn_mutator vm ~name:"m" (fun m ->
      (* allocate 2 MB of garbage *)
      for _ = 1 to 20_000 do
        ignore (Mutator.alloc m ~nrefs:0 ~size:13)
      done;
      let before = Cgc_heap.Heap.free_slots (Vm.heap vm) in
      Collector.force_collect (Vm.collector vm);
      let after = Cgc_heap.Heap.free_slots (Vm.heap vm) in
      freed := after - before);
  Vm.run vm ~ms:10_000.0;
  check cb "forced collection recovered space" true (!freed > 100_000)

let test_determinism () =
  let run () =
    let vm = run_vm ~ms:500.0 () in
    ( Vm.total_transactions vm,
      (Vm.gc_stats vm).Gstats.cycles,
      Hist.mean (Vm.gc_stats vm).Gstats.pause_ms )
  in
  let t1, c1, p1 = run () in
  let t2, c2, p2 = run () in
  check ci "same transactions" t1 t2;
  check ci "same cycles" c1 c2;
  check (Alcotest.float 1e-9) "same pauses" p1 p2

let test_junk_roots_tolerated () =
  let vm = Vm.create (Vm.config ~heap_mb:4.0 ~ncpus:2 ()) in
  Vm.spawn_mutator vm ~name:"junk" (fun m ->
      let rng = Mutator.rng m in
      while not (Mutator.stopped m) do
        for i = 0 to 7 do
          Mutator.root_set m i (Cgc_util.Prng.int rng max_int)
        done;
        ignore (Mutator.alloc m ~nrefs:0 ~size:8);
        Mutator.work m 2_000;
        Mutator.tx_done m
      done);
  Vm.run vm ~ms:500.0;
  check cb "survived junk roots across GCs" true
    ((Vm.gc_stats vm).Gstats.cycles >= 1)

let test_non_allocating_thread_scanned () =
  (* A thread that holds the only reference to an object but never
     allocates: the object must survive (stack scanned via the
     no-other-work path / STW rescan). *)
  let vm = Vm.create (Vm.config ~heap_mb:4.0 ~ncpus:2 ()) in
  let ok = ref false in
  let handoff = ref 0 in
  Vm.spawn_mutator vm ~name:"holder" (fun m ->
      (* wait until the allocator publishes an object, then hold it in our
         stack only *)
      while !handoff = 0 do
        Mutator.think m 10_000
      done;
      Mutator.root_set m 0 !handoff;
      (* sleep through several GC cycles *)
      Mutator.think m 300_000_000;
      let arena = Cgc_heap.Heap.arena (Vm.heap vm) in
      ok :=
        Cgc_heap.Arena.header_valid arena !handoff
        && Cgc_heap.Arena.size_of arena !handoff = 24);
  Vm.spawn_mutator vm ~name:"allocator" (fun m ->
      let o = Mutator.alloc m ~nrefs:0 ~size:24 in
      Mutator.root_set m 0 o;
      (* force publication of the allocation bits, then hand off *)
      ignore (Mutator.alloc m ~nrefs:0 ~size:8);
      Collector.force_collect (Vm.collector vm);
      handoff := o;
      Mutator.root_set m 0 0;
      (* churn to force several GC cycles while the holder sleeps *)
      while not (Mutator.stopped m) do
        ignore (Mutator.alloc m ~nrefs:0 ~size:16);
        Mutator.work m 500;
        Mutator.tx_done m
      done);
  Vm.run vm ~ms:800.0;
  check cb "object held only by a sleeping thread survived" true !ok

(* --------------------------- Metering --------------------------- *)

let test_metering_kickoff () =
  let m = Metering.create Config.default ~heap_slots:1_000_000 in
  (* L = 0.4 heap, M = 0.02 heap, K0 = 8: threshold = 52_500 *)
  check cb "threshold value" true
    (abs_float (Metering.kickoff_threshold m -. 52_500.0) < 1.0);
  check cb "plenty of free: no start" false (Metering.should_start m ~free:500_000);
  check cb "low free: start" true (Metering.should_start m ~free:50_000)

let test_metering_progress_basic () =
  let m = Metering.create Config.default ~heap_slots:1_000_000 in
  (* at kickoff, K should be near K0 *)
  let k = Metering.increment_rate m ~traced:0 ~free:52_500 in
  check cb "K near K0 at kickoff" true (abs_float (k -. 8.0) < 1.0)

let test_metering_negative_k_clamps () =
  let m = Metering.create Config.default ~heap_slots:1_000_000 in
  (* traced far beyond L+M: K negative -> Kmax = 2*K0 = 16 *)
  let k = Metering.increment_rate m ~traced:900_000 ~free:100_000 in
  check (Alcotest.float 1e-6) "Kmax" 16.0 k

let test_metering_background_credit () =
  let m = Metering.create Config.default ~heap_slots:1_000_000 in
  (* background does everything: mutator rate 0 *)
  for _ = 1 to 20 do
    Metering.observe_background m ~bg_traced:100_000 ~mutator_alloc:1_000
  done;
  check cb "Best large" true (Metering.best m > 50.0);
  let k = Metering.increment_rate m ~traced:0 ~free:52_500 in
  check (Alcotest.float 1e-6) "mutators trace nothing" 0.0 k

let test_metering_corrective_boost () =
  let m = Metering.create Config.default ~heap_slots:1_000_000 in
  (* Behind schedule: free much smaller than remaining work / K0 *)
  let k_behind = Metering.increment_rate m ~traced:0 ~free:30_000 in
  (* raw K = 420_000/30_000 = 14 > K0=8, boosted by C=0.5: 14 + 3 = 17,
     clamped to kmax_factor*kmax = 32 -> 17 *)
  check cb "boosted above raw K" true (k_behind > 14.0);
  check cb "still bounded" true (k_behind <= 32.0)

let test_metering_work_amount () =
  let m = Metering.create Config.default ~heap_slots:1_000_000 in
  let w = Metering.increment_work m ~traced:0 ~free:52_500 ~alloc:256 in
  check cb "work ~ K*alloc" true (w >= 256 * 7 && w <= 256 * 9)

let test_metering_end_cycle_updates () =
  let m = Metering.create Config.default ~heap_slots:1_000_000 in
  let l0 = Metering.l_estimate m in
  Metering.end_cycle m ~l_observed:100_000 ~m_observed:5_000;
  check cb "L moved toward observation" true (Metering.l_estimate m < l0);
  check cb "L is a blend" true (Metering.l_estimate m > 100_000.0)

let () =
  Alcotest.run "collector"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "CGC sound" `Slow test_cgc_collects_and_stays_sound;
          Alcotest.test_case "STW sound" `Slow test_stw_collects_and_stays_sound;
          Alcotest.test_case "CGC pauses < STW pauses" `Slow
            test_cgc_shorter_pauses_than_stw;
          Alcotest.test_case "STW has no barrier work" `Slow
            test_stw_mode_has_no_write_barrier;
          Alcotest.test_case "pause components" `Slow test_pause_components_sum;
          Alcotest.test_case "occupancy measured" `Slow test_occupancy_measured;
          Alcotest.test_case "floating garbage >= 0" `Slow
            test_floating_garbage_nonnegative;
          Alcotest.test_case "lazy sweep mode" `Slow test_lazy_sweep_mode;
          Alcotest.test_case "lazy sweep: one start per cycle" `Slow
            test_lazy_sweep_cycles_in_order;
          Alcotest.test_case "two card passes" `Slow test_two_card_passes;
          Alcotest.test_case "naive fence policy" `Slow
            test_naive_fence_policy_end_to_end;
          Alcotest.test_case "fence batching saves fences" `Slow
            test_fence_batching_saves_fences;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          Alcotest.test_case "force_collect" `Quick
            test_force_collect_frees_garbage;
          Alcotest.test_case "determinism" `Slow test_determinism;
          Alcotest.test_case "junk roots" `Quick test_junk_roots_tolerated;
          Alcotest.test_case "non-allocating thread" `Slow
            test_non_allocating_thread_scanned;
        ] );
      ( "metering",
        [
          Alcotest.test_case "kickoff formula" `Quick test_metering_kickoff;
          Alcotest.test_case "progress basic" `Quick test_metering_progress_basic;
          Alcotest.test_case "negative K clamps to Kmax" `Quick
            test_metering_negative_k_clamps;
          Alcotest.test_case "background credit" `Quick
            test_metering_background_credit;
          Alcotest.test_case "corrective boost" `Quick
            test_metering_corrective_boost;
          Alcotest.test_case "work amount" `Quick test_metering_work_amount;
          Alcotest.test_case "end_cycle updates" `Quick
            test_metering_end_cycle_updates;
        ] );
    ]
