(* Tests for the workload library: object-graph helpers, the transaction
   mix engine and the three benchmark presets. *)

module Vm = Cgc_runtime.Vm
module Mutator = Cgc_runtime.Mutator
module Collector = Cgc_core.Collector
module Config = Cgc_core.Config
module Gstats = Cgc_core.Gstats
module Stats = Cgc_util.Stats
module Objgraph = Cgc_workloads.Objgraph
module Txmix = Cgc_workloads.Txmix
module Specjbb = Cgc_workloads.Specjbb
module Pbob = Cgc_workloads.Pbob
module Javac = Cgc_workloads.Javac

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let with_mutator ?(heap_mb = 8.0) f =
  let vm = Vm.create (Vm.config ~heap_mb ~ncpus:1 ()) in
  let result = ref None in
  Vm.spawn_mutator vm ~name:"t" (fun m -> result := Some (f vm m));
  Vm.run vm ~ms:60_000.0;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "mutator did not finish"

(* --------------------------- Objgraph --------------------------- *)

let test_build_list () =
  with_mutator (fun _vm m ->
      let head = Objgraph.build_list m ~len:500 ~node_slots:8 in
      Mutator.root_set m 0 head;
      check ci "length" 500 (Objgraph.list_length m head);
      check ci "empty list" 0 (Objgraph.list_length m 0))

let test_build_tree () =
  with_mutator (fun _vm m ->
      let t = Objgraph.build_tree m ~depth:3 ~fanout:3 ~node_slots:6 in
      Mutator.root_set m 0 t;
      (* 1 + 3 + 9 + 27 = 40 *)
      check ci "node count" 40 (Objgraph.count_tree m t))

let test_build_tree_survives_gc () =
  with_mutator ~heap_mb:4.0 (fun vm m ->
      let t = Objgraph.build_tree m ~depth:4 ~fanout:4 ~node_slots:6 in
      Mutator.root_set m 0 t;
      Collector.force_collect (Vm.collector vm);
      check ci "tree intact after GC" 341 (Objgraph.count_tree m t))

(* --------------------------- Txmix --------------------------- *)

let test_resident_slots_math () =
  let p =
    {
      Specjbb.base_profile with
      Txmix.live_lists = 10;
      list_len = 100;
      node_slots = 6;
      leaf_fanout = 3;
      leaf_slots = 8;
    }
  in
  (* node group = 6 + 3*8 = 30 slots *)
  check ci "resident slots" ((10 * 100 * 30) + 11) (Txmix.resident_slots p)

let test_scale_residency () =
  let p = Specjbb.base_profile in
  let scaled = Txmix.scale_residency p ~target_slots:64_000 in
  let got = Txmix.resident_slots scaled in
  check cb "close to target" true (abs (got - 64_000) < 64_000 / 10)

let test_transactions_preserve_lists () =
  with_mutator ~heap_mb:16.0 (fun _vm m ->
      let p =
        {
          Specjbb.base_profile with
          Txmix.live_lists = 5;
          list_len = 50;
          tx_work = 100;
        }
      in
      (* mirror Txmix.body's setup so we keep access to dir *)
      let dir = Mutator.alloc m ~nrefs:5 ~size:6 in
      Mutator.root_set m 0 dir;
      for i = 0 to 4 do
        let h = Objgraph.build_list m ~len:50 ~node_slots:p.Txmix.node_slots in
        Mutator.set_ref m dir i h
      done;
      for _ = 1 to 2000 do
        Txmix.transaction p m ~dir
      done;
      (* head replacement preserves list length *)
      for i = 0 to 4 do
        check ci
          (Printf.sprintf "list %d length preserved" i)
          50
          (Objgraph.list_length m (Mutator.get_ref m dir i))
      done)

(* --------------------------- Presets --------------------------- *)

(* A workload's VM after [ms] simulated milliseconds. *)
let ran ~ms vm =
  Vm.run vm ~ms;
  vm

let test_specjbb_runs_and_occupies () =
  let vm =
    ran ~ms:600.0 (Specjbb.setup ~warehouses:8 ~gc:Config.stw ~heap_mb:16.0 ())
  in
  let st = Vm.gc_stats vm in
  check cb "transactions" true (Vm.total_transactions vm > 100);
  check cb "collections happened" true (st.Gstats.cycles >= 1);
  let occ = Stats.mean st.Gstats.occupancy_end in
  check cb
    (Printf.sprintf "residency near 60%% (got %.0f%%)" (100. *. occ))
    true
    (occ > 0.45 && occ < 0.75);
  check (Alcotest.list (Alcotest.pair ci ci)) "heap intact" []
    (Collector.check_reachable (Vm.collector vm))

let test_specjbb_warehouse_scaling () =
  let vm1 =
    ran ~ms:400.0 (Specjbb.setup ~warehouses:1 ~gc:Config.stw ~heap_mb:16.0 ())
  in
  let vm4 =
    ran ~ms:400.0 (Specjbb.setup ~warehouses:4 ~gc:Config.stw ~heap_mb:16.0 ())
  in
  check cb "4 warehouses do more work on 4 cpus" true
    (Vm.total_transactions vm4 > 2 * Vm.total_transactions vm1)

let test_pbob_idle_time () =
  (* pBOB thinks; the processors should be largely idle. *)
  let vm =
    ran ~ms:600.0
      (Pbob.setup ~warehouses:2 ~gc:Config.default ~terminals:5 ~heap_mb:16.0
         ())
  in
  let s = Vm.sched vm in
  let idle = Cgc_sim.Sched.idle_cycles s in
  let busy = Cgc_sim.Sched.busy_cycles s in
  check cb "mostly idle" true (idle > busy);
  check cb "transactions" true (Vm.total_transactions vm > 20);
  check (Alcotest.list (Alcotest.pair ci ci)) "heap intact" []
    (Collector.check_reachable (Vm.collector vm))

let test_pbob_shared_warehouse () =
  let vm =
    ran ~ms:500.0
      (Pbob.setup ~warehouses:1 ~gc:Config.default ~terminals:4 ~heap_mb:16.0
         ~think_mean:100_000 ())
  in
  (* the warehouse database is published in the globals *)
  let dir = Collector.global_get (Vm.collector vm) 0 in
  check cb "warehouse dir published" true (dir <> 0);
  check (Alcotest.list (Alcotest.pair ci ci)) "heap intact" []
    (Collector.check_reachable (Vm.collector vm))

let test_pbob_too_many_warehouses_rejected () =
  Alcotest.check_raises "rejects > n_globals warehouses"
    (Invalid_argument "Pbob.setup: too many warehouses for the global-roots table")
    (fun () ->
      ignore
        (Pbob.setup ~warehouses:(Collector.n_globals + 1) ~gc:Config.default ()))

let test_javac_runs () =
  let vm = ran ~ms:800.0 (Javac.setup ~gc:Config.default ()) in
  let st = Vm.gc_stats vm in
  check cb "compiled some classes" true (Vm.total_transactions vm > 50);
  check cb "GC happened" true (st.Gstats.cycles >= 1);
  check (Alcotest.list (Alcotest.pair ci ci)) "heap intact" []
    (Collector.check_reachable (Vm.collector vm))

let test_javac_uniprocessor_config () =
  let vm = Javac.setup ~gc:Config.default () in
  check ci "1 cpu" 1 (Cgc_sim.Sched.ncpus (Vm.sched vm));
  let gc = { Config.default with Config.n_background = 3 } in
  let vm = Javac.setup ~gc () in
  check ci "background threads as given" 3
    (Collector.config (Vm.collector vm)).Config.n_background

(* javac's ring capacity reaches the VM: a tiny ring is configured as
   asked and overflows, while the default ring holds the same run. *)
let test_javac_trace_ring () =
  let dropped ?trace_ring () =
    let vm =
      ran ~ms:50.0 (Javac.setup ~gc:Config.default ~trace:true ?trace_ring ())
    in
    ((Vm.the_config vm).Vm.trace_ring, Cgc_obs.Obs.dropped (Vm.obs vm))
  in
  let ring, lost = dropped ~trace_ring:64 () in
  check ci "ring capacity honoured" 64 ring;
  check cb "a 64-event ring overflows" true (lost > 0);
  check ci "default ring holds the run" 0 (snd (dropped ()))

let () =
  Alcotest.run "workloads"
    [
      ( "objgraph",
        [
          Alcotest.test_case "build_list" `Quick test_build_list;
          Alcotest.test_case "build_tree" `Quick test_build_tree;
          Alcotest.test_case "tree survives GC" `Quick
            test_build_tree_survives_gc;
        ] );
      ( "txmix",
        [
          Alcotest.test_case "resident slots" `Quick test_resident_slots_math;
          Alcotest.test_case "scale residency" `Quick test_scale_residency;
          Alcotest.test_case "transactions preserve lists" `Slow
            test_transactions_preserve_lists;
        ] );
      ( "presets",
        [
          Alcotest.test_case "specjbb occupancy" `Slow
            test_specjbb_runs_and_occupies;
          Alcotest.test_case "specjbb scaling" `Slow
            test_specjbb_warehouse_scaling;
          Alcotest.test_case "pbob idle time" `Slow test_pbob_idle_time;
          Alcotest.test_case "pbob shared warehouse" `Slow
            test_pbob_shared_warehouse;
          Alcotest.test_case "pbob warehouse limit" `Quick
            test_pbob_too_many_warehouses_rejected;
          Alcotest.test_case "javac runs" `Slow test_javac_runs;
          Alcotest.test_case "javac uniprocessor" `Quick
            test_javac_uniprocessor_config;
          Alcotest.test_case "javac trace ring" `Quick test_javac_trace_ring;
        ] );
    ]
