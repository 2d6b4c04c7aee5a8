(* Every value a library interface under lib/ exports has a caller
   outside its own unit that is not a test, or only tests reach it and
   the allowlist below says why.  Run as
   [test_exports.exe ROOT [alcotest args]], where ROOT is the build
   tree's workspace root. *)

module C = Export_check

(* Values that only tests reach, each with the reason it stays. *)
let allowlist =
  [
    ( "Cgc_cluster.Balancer.ring_points",
      "test seam: the hash ring's failover contract" );
    ( "Cgc_cluster.Balancer.ring_lookup",
      "test seam: the hash ring's failover contract" );
    ( "Cgc_core.Collector.force_collect",
      "test seam: a full collection on demand" );
    ( "Cgc_core.Collector.old_limit",
      "test seam: the old-space/nursery boundary" );
    ( "Cgc_core.Compact.area",
      "test seam: the evacuation area the compaction tests aim at" );
    ("Cgc_core.Compact.pinned_count", "test seam: objects pinned in the area");
    ("Cgc_core.Compact.forward", "test seam: post-evacuation addresses");
    ( "Cgc_core.Metering.kickoff_threshold",
      "test seam: the kickoff rule's free-slot threshold" );
    ( "Cgc_core.Metering.increment_rate",
      "test seam: the clamped tracing rate K" );
    ( "Cgc_core.Metering.best",
      "test seam: the background tracing-rate estimate" );
    ("Cgc_core.Stealing.push_obj", "test seam: seeds the work-stealing tracer");
    ( "Cgc_core.Stealing.marked_slots",
      "test seam: traced volume, compared with the packet tracer's" );
    ("Cgc_core.Stealing.steals", "test seam: steal count");
    ("Cgc_core.Stealing.exposes", "test seam: work-exposure count");
    ("Cgc_core.Sweep.gaps", "test seam: a swept region's free gaps");
    ("Cgc_core.Sweep.live", "test seam: a swept region's live slots");
    ("Cgc_core.Sweep.lazy_live", "test seam: a lazy sweep's live slots");
    ( "Cgc_core.Tracer.stolen",
      "test seam: whether a session's packets were stolen back" );
    ("Cgc_core.Tracer.push_root", "test seam: conservative root filtering");
    ("Cgc_core.Tracer.push_obj", "test seam: seeds a tracing session");
    ( "Cgc_core.Tracer.acquire_input",
      "test seam: the section 5.2 input-packet filter" );
    ( "Cgc_fault.Fault.index",
      "test seam: decodes Fault_inject event arguments" );
    ("Cgc_gen.Gen.n_lo", "test seam: nursery bounds");
    ("Cgc_gen.Gen.n_hi", "test seam: nursery bounds");
    ("Cgc_gen.Gen.pinned_slots", "test seam: slots the last minor pinned");
    ("Cgc_gen.Gen.young", "test seam: the old-to-young remembered set");
    ("Cgc_heap.Card_table.clear", "test seam: cleans one card");
    ("Cgc_heap.Freelist.dark_matter", "test seam: slots too small to keep");
    ("Cgc_heap.Freelist.chunk_count", "test seam: free-list shape");
    ( "Cgc_heap.Heap.cache_alloc",
      "test seam: cache_alloc_addr with an option result" );
    ( "Cgc_heap.Heap.cumulative_alloc_slots",
      "test seam: monotonic allocation volume" );
    ( "Cgc_heap.Heap.object_overlapping",
      "test seam: the object covering a slot" );
    ( "Cgc_obs.Export.trace_schema",
      "test seam: the tag a trace file must carry" );
    ( "Cgc_obs.Export.chrome_json",
      "reference writer the chrome_obs property compares against" );
    ( "Cgc_obs.Export.format_us",
      "test seam: the writer's timestamp format, checked against Printf" );
    ("Cgc_obs.Obs.events", "test seam: every surviving event as a list");
    ("Cgc_obs.Ring.add", "test seam: adds a whole event record");
    ("Cgc_obs.Ring.to_list", "test seam: the surviving events as a list");
    ("Cgc_packets.Packet.iter", "test seam: a packet's entries");
    ("Cgc_packets.Pool.machine", "test seam: the machine a pool charges");
    ("Cgc_packets.Pool.in_use", "test seam: packets out of the Empty sub-pool");
    ("Cgc_packets.Pool.entries", "test seam: entries across all packets");
    ( "Cgc_prof.Analysis.utilization_timeline",
      "test seam: the analysis's utilization timeline over an event list" );
    ("Cgc_runtime.Vm.gen", "test seam: a VM's generational front end");
    ( "Cgc_server.Span.zero_blame",
      "test seam: builds spans with one blame component" );
    ("Cgc_server.Span.worse", "test seam: the worst-list order");
    ("Cgc_server.Span.worst_k", "test seam: the worst-list bound");
    ("Cgc_sim.Sched.thread_cycles", "test seam: per-thread cycle accounting");
    ("Cgc_sim.Sched.request_stop", "test seam: cooperative shutdown");
    ("Cgc_sim.Sched.threads", "test seam: every spawned thread");
    ( "Cgc_sim.Sched.debug_cpu_clocks",
      "test seam: per-CPU clocks for the quiet-loop equivalence property" );
    ("Cgc_sim.Sched.debug_queues_clean", "test seam: retention invariant");
    ( "Cgc_smp.Fence.site_name",
      "test seam: fence-site names for the registry drift test" );
    ("Cgc_smp.Fence.all_sites", "test seam: the fence-site registry");
    ( "Cgc_util.Bitvec.set_range",
      "test seam: sets bit runs for the scan tests" );
    ( "Cgc_util.Bitvec.next_clear",
      "test seam: the run-end scan of fold_set_ranges" );
    ("Cgc_util.Ewma.samples", "test seam: observations folded in");
    ("Cgc_util.Histogram.sum", "test seam: the merge property's sum check");
    ( "Cgc_util.Histogram.nonzero_buckets",
      "test seam: bucket contents for the merge property" );
    ( "Cgc_util.Intheap.length",
      "test seam: size, compared with a sorted model" );
    ( "Cgc_util.Prng.float",
      "test input draw; the reference-equivalence property checks it" );
    ( "Cgc_util.Prng.bool",
      "test input draw; the reference-equivalence property checks it" );
    ("Cgc_workloads.Objgraph.list_length", "test seam: walks a built list");
    ("Cgc_workloads.Objgraph.count_tree", "test seam: walks a built tree");
    ( "Cgc_workloads.Txmix.resident_slots",
      "test seam: the resident set a mix keeps" );
  ]

let root = Sys.argv.(1)

let is_test src =
  String.starts_with ~prefix:"test/" src
  || String.starts_with ~prefix:"test_" (Filename.basename src)

let repository () =
  let exports =
    C.scan ~root ~exports:[ "lib" ]
      ~users:[ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]
      ~is_test
  in
  Alcotest.(check bool) "some exports found" true (List.length exports > 100);
  match C.problems ~allowlist exports with
  | [] -> ()
  | ps -> Alcotest.fail (String.concat "\n" ("" :: ps))

(* In the fixture, only test_user.ml is a test. *)
let fixture () =
  C.scan ~root ~exports:[ "test/exports/fixture/api" ]
    ~users:[ "test/exports/fixture" ]
    ~is_test:(fun src ->
      String.starts_with ~prefix:"test_" (Filename.basename src))

let dead =
  "Exports_fixture.Api.dead (test/exports/fixture/api/api.mli:4): nothing \
   outside its unit references it; drop it from the .mli"

let fixture_dead_only () =
  let exports = fixture () in
  Alcotest.(check int) "exports" 7 (List.length exports);
  Alcotest.(check (list string))
    "problems" [ dead ]
    (C.problems
       ~allowlist:[ ("Exports_fixture.Api.for_tests", "test seam") ]
       exports)

let fixture_stale () =
  Alcotest.(check (list string))
    "problems"
    [
      dead;
      "Exports_fixture.Api.for_tests (test/exports/fixture/api/api.mli:7): only \
       tests reach it (test/exports/fixture/user/test_user.ml); allowlist \
       it with a reason or delete it";
      "Exports_fixture.Api.via_open (test/exports/fixture/api/api.mli:11): \
       allowlisted, but has a production caller";
      "Exports_fixture.Api.gone: allowlisted, but no such export";
    ]
    (C.problems
       ~allowlist:
         [
           ("Exports_fixture.Api.via_open", "x");
           ("Exports_fixture.Api.gone", "y");
         ]
       (fixture ()))

let () =
  let argv =
    Array.append [| Sys.argv.(0) |]
      (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
  in
  Alcotest.run ~argv "exports"
    [
      ( "exports",
        [
          Alcotest.test_case "fixture: only the dead export is flagged" `Quick
            fixture_dead_only;
          Alcotest.test_case "fixture: stale and missing allowlist entries"
            `Quick fixture_stale;
          Alcotest.test_case "every lib/ export has a caller or a reason"
            `Quick repository;
        ] );
    ]
