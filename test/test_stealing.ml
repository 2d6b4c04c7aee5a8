(* Tests for the work-stealing mark stacks (the section 4.4 comparison
   mechanism): correctness of parallel marking, actual stealing between
   workers, exposure of surplus work, termination, and the end-to-end
   STW baseline configured with stealing. *)

module Machine = Cgc_smp.Machine
module Heap = Cgc_heap.Heap
module Arena = Cgc_heap.Arena
module Sched = Cgc_sim.Sched
module Parallel = Cgc_sim.Parallel
module Stealing = Cgc_core.Stealing
module Config = Cgc_core.Config
module Vm = Cgc_runtime.Vm
module Stats = Cgc_util.Stats

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

(* Build a heap with a wide object graph; returns (heap, root, all). *)
let build_graph mach ~fanout ~depth =
  let heap = Heap.create mach ~nslots:(1 lsl 18) in
  let all = ref [] in
  let rec build d =
    let nrefs = if d = 0 then 0 else fanout in
    let a =
      match Heap.alloc_large heap ~size:(max 4 (nrefs + 1)) ~nrefs ~mark_new:false with
      | Some a -> a
      | None -> failwith "heap too small"
    in
    all := a :: !all;
    if d > 0 then
      for i = 0 to fanout - 1 do
        Arena.ref_set_raw (Heap.arena heap) a i (build (d - 1))
      done;
    a
  in
  let root = build depth in
  (heap, root, !all)

let run_mark ~workers ~fanout ~depth =
  let mach = Machine.testing () in
  let heap, root, all = build_graph mach ~fanout ~depth in
  let stl = Stealing.create heap ~nworkers:workers in
  let sched = Sched.create ~ncpus:workers () in
  ignore
    (Sched.spawn sched ~name:"driver" ~prio:Sched.Normal (fun () ->
         Stealing.push_obj stl ~worker:0 root;
         Parallel.run sched ~workers (fun wid ->
             Stealing.mark_worker stl ~worker:wid)));
  Sched.run sched ~until:max_int;
  (heap, stl, all)

let test_marks_everything_1worker () =
  let heap, _, all = run_mark ~workers:1 ~fanout:3 ~depth:6 in
  List.iter
    (fun a -> check cb "marked" true (Heap.is_marked heap a))
    all

let test_marks_everything_4workers () =
  let heap, stl, all = run_mark ~workers:4 ~fanout:4 ~depth:6 in
  List.iter
    (fun a -> check cb "marked" true (Heap.is_marked heap a))
    all;
  let expected =
    List.fold_left
      (fun acc a -> acc + Arena.size_of_sc (Heap.arena heap) a)
      0 all
  in
  check ci "volume accounted" expected (Stealing.marked_slots stl)

let test_stealing_happens () =
  (* A wide graph started on worker 0 must spill to the others. *)
  let _, stl, _ = run_mark ~workers:4 ~fanout:6 ~depth:6 in
  check cb "surplus exposed" true (Stealing.exposes stl > 0);
  check cb "steals happened" true (Stealing.steals stl > 0)

let test_push_root_validates () =
  let mach = Machine.testing () in
  let heap, root, _ = build_graph mach ~fanout:2 ~depth:2 in
  let stl = Stealing.create heap ~nworkers:1 in
  check cb "valid root accepted" true (Stealing.push_root stl ~worker:0 root);
  check cb "junk rejected" false (Stealing.push_root stl ~worker:0 999_999);
  check cb "null rejected" false (Stealing.push_root stl ~worker:0 0)

let test_stw_baseline_with_stealing () =
  (* End-to-end: the baseline collector configured with stealing for its
     parallel mark produces a sound heap and comparable pauses. *)
  let gc = { Config.stw with Config.load_balance = Config.Stealing } in
  (* Only the STW mark steals; the concurrent modes reject the setting. *)
  List.iter
    (fun base ->
      Alcotest.check_raises
        (Config.mode_name base.Config.mode ^ " + stealing rejected")
        (Invalid_argument
           "Collector.create: work stealing drives only the stop-the-world \
            mark")
        (fun () ->
          ignore
            (Vm.create
               (Vm.config ~heap_mb:4.0
                  ~gc:{ base with Config.load_balance = Config.Stealing }
                  ()))))
    [ Config.default; Config.gen ];
  let vm = Cgc_workloads.Specjbb.setup ~warehouses:4 ~gc ~heap_mb:16.0 () in
  Vm.run vm ~ms:800.0;
  let st = Vm.gc_stats vm in
  check cb "collections happened" true (st.Cgc_core.Gstats.cycles >= 2);
  check (Alcotest.list (Alcotest.pair ci ci)) "heap intact under stealing" []
    (Cgc_core.Collector.check_reachable (Vm.collector vm));
  check cb "pauses recorded" true (Cgc_util.Histogram.mean st.Cgc_core.Gstats.pause_ms > 0.0)

let test_stealing_matches_packets_live_set () =
  (* Same workload, same seed: the two load balancers must mark the same
     amount of live data (determinism makes this exact). *)
  let run load_balance =
    let gc = { Config.stw with Config.load_balance } in
    let vm = Cgc_workloads.Specjbb.setup ~warehouses:2 ~gc ~heap_mb:16.0 () in
    Vm.run vm ~ms:600.0;
    Stats.mean (Vm.gc_stats vm).Cgc_core.Gstats.occupancy_end
  in
  let occ_packets = run Config.Packets in
  let occ_steal = run Config.Stealing in
  check (Alcotest.float 0.02) "same live set" occ_packets occ_steal

let () =
  Alcotest.run "stealing"
    [
      ( "stealing",
        [
          Alcotest.test_case "marks everything (1 worker)" `Quick
            test_marks_everything_1worker;
          Alcotest.test_case "marks everything (4 workers)" `Quick
            test_marks_everything_4workers;
          Alcotest.test_case "stealing happens" `Quick test_stealing_happens;
          Alcotest.test_case "push_root validates" `Quick
            test_push_root_validates;
          Alcotest.test_case "STW baseline with stealing" `Slow
            test_stw_baseline_with_stealing;
          Alcotest.test_case "stealing = packets live set" `Slow
            test_stealing_matches_packets_live_set;
        ] );
    ]
