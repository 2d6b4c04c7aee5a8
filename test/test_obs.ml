(* Tests for the observability subsystem: the log-scale histogram, the
   bounded event ring, the tracing sink, and the Chrome trace exporter —
   including the headline determinism property (two equal-seed traced VM
   runs produce byte-identical JSON). *)

module Histogram = Cgc_util.Histogram
module Prng = Cgc_util.Prng
module Clock = Cgc_util.Clock
module Ring = Cgc_obs.Ring
module Event = Cgc_obs.Event
module Obs = Cgc_obs.Obs
module Export = Cgc_obs.Export
module Vm = Cgc_runtime.Vm
module Config = Cgc_core.Config
module Fence = Cgc_smp.Fence

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cf = Alcotest.(float 1e-9)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

(* --------------------------- Histogram --------------------------- *)

(* Exact percentile by nearest-rank over a sorted copy — the reference
   the bucketed histogram must approximate. *)
let exact_percentile samples p =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if p >= 100.0 then a.(n - 1)
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let test_hist_percentiles_vs_sort () =
  let rng = Prng.create 11 in
  let n = 5000 in
  (* log-uniform over ~4 decades, like pause times in ms *)
  let samples =
    Array.init n (fun _ -> 10.0 ** (Prng.float rng 4.0 -. 2.0))
  in
  let h = Histogram.create () in
  Array.iter (fun x -> Histogram.add h x) samples;
  List.iter
    (fun p ->
      let want = exact_percentile samples p in
      let got = Histogram.percentile h p in
      (* 16 buckets per decade bounds the relative error of any interior
         percentile by one bucket width: 10^(1/16) - 1 ~ 15.5%. *)
      let rel = abs_float (got -. want) /. want in
      check cb (Printf.sprintf "p%.0f within bucket width" p) true (rel < 0.16))
    [ 10.0; 50.0; 90.0; 99.0 ];
  check cf "p100 is the exact max" (exact_percentile samples 100.0)
    (Histogram.percentile h 100.0)

let test_hist_exact_moments () =
  let samples = [| 0.5; 1.0; 2.0; 4.0; 8.0 |] in
  let h = Histogram.create () in
  Array.iter (Histogram.add h) samples;
  check ci "count" 5 (Histogram.count h);
  check cf "sum" 15.5 (Histogram.sum h);
  check cf "mean" 3.1 (Histogram.mean h);
  check cf "min" 0.5 (Histogram.min h);
  check cf "max" 8.0 (Histogram.max h)

let test_hist_empty () =
  let h = Histogram.create () in
  check ci "count" 0 (Histogram.count h);
  check cf "mean of empty" 0.0 (Histogram.mean h);
  check cf "percentile of empty" 0.0 (Histogram.percentile h 50.0)

let test_hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  let all = Histogram.create () in
  let rng = Prng.create 3 in
  for _ = 1 to 500 do
    let x = Prng.float rng 100.0 +. 0.01 in
    Histogram.add (if Prng.bool rng then a else b) x;
    Histogram.add all x
  done;
  let m = Histogram.merge a b in
  check ci "merged count" (Histogram.count all) (Histogram.count m);
  check cf "merged sum" (Histogram.sum all) (Histogram.sum m);
  check cf "merged max" (Histogram.max all) (Histogram.max m);
  check cf "merged p90" (Histogram.percentile all 90.0)
    (Histogram.percentile m 90.0)

(* ----------------------------- Ring ------------------------------ *)

let ev ts = { Event.ts; dur = -1; tid = 0; code = Event.Packet_get; arg = 0 }

let test_ring_keeps_newest () =
  let r = Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Ring.add r (ev i)
  done;
  check ci "dropped count" 6 (Ring.dropped r);
  check ci "stored" 4 (Ring.length r);
  let ts = List.map (fun e -> e.Event.ts) (Ring.to_list r) in
  check (Alcotest.list ci) "newest 4, oldest first" [ 7; 8; 9; 10 ] ts

let test_ring_no_overflow () =
  let r = Ring.create ~capacity:8 in
  for i = 1 to 8 do
    Ring.add r (ev i)
  done;
  check ci "no loss" 0 (Ring.dropped r);
  check ci "all stored" 8 (Ring.length r)

(* ------------------------------ Obs ------------------------------ *)

let test_null_sink_emits_nothing () =
  let t = Obs.null in
  check cb "disabled" false (Obs.enabled t);
  Obs.instant t Event.Stw_pause;
  Obs.span t ~start:0 Event.Conc_mark;
  check ci "emitted" 0 (Obs.emitted t);
  check ci "events" 0 (List.length (Obs.events t))

let test_armed_sink_orders_events () =
  let clock = Clock.manual () in
  let t = Obs.create clock in
  check cb "enabled" true (Obs.enabled t);
  (* interleave two threads with out-of-order arrival per thread *)
  clock.tid <- 1;
  clock.base <- 30;
  Obs.instant t Event.Packet_put;
  clock.tid <- 0;
  clock.base <- 10;
  Obs.instant t Event.Packet_get;
  clock.base <- 50;
  Obs.span t ~start:20 Event.Stw_pause;
  let evs = Obs.events t in
  check ci "all kept" 3 (List.length evs);
  let ts = List.map (fun e -> e.Event.ts) evs in
  check (Alcotest.list ci) "sorted by timestamp" [ 10; 20; 30 ] ts;
  check ci "emitted counter" 3 (Obs.emitted t);
  Obs.clear t;
  check ci "clear drops events" 0 (List.length (Obs.events t))

(* ---------------------------- Export ----------------------------- *)

let test_chrome_json_shape () =
  let clock = Clock.manual () in
  let t = Obs.create clock in
  clock.tid <- 7;
  clock.base <- 1100;
  Obs.span t ~start:550 ~arg:3 Event.Stw_pause;
  Obs.instant t ~arg:12 Event.Packet_steal;
  let json = Export.chrome_json ~cycles_per_us:550.0 (Obs.events t) in
  check cb "has trace array" true
    (String.length json > 0 && json.[0] = '{');
  let has s = contains json s in
  check cb "complete span" true (has {|"ph":"X"|});
  check cb "instant event" true (has {|"ph":"i"|});
  check cb "span name" true (has {|"name":"stw-pause"|});
  check cb "instant name" true (has {|"name":"packet-steal"|});
  check cb "tid" true (has {|"tid":7|});
  check cb "ts in us" true (has {|"ts":1.000|});
  check cb "dur in us" true (has {|"dur":1.000|})

let test_csv_quoting () =
  let out =
    Export.csv ~header:[ "a"; "b" ]
      [ [ "plain"; "with,comma" ]; [ "with\"quote"; "x" ] ]
  in
  check Alcotest.string "csv"
    "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",x\n" out;
  let out =
    Export.csv ~schema:"test-v1" ~header:[ "a" ] [ [ "1" ] ]
  in
  check Alcotest.string "csv with schema line" "#schema=test-v1\na\n1\n" out

(* --------------------- End-to-end determinism -------------------- *)

let traced_run () =
  let gc = { Config.default with Config.n_background = 2 } in
  let vm =
    Cgc_workloads.Specjbb.setup ~warehouses:4 ~gc ~heap_mb:24.0 ~ncpus:2
      ~seed:5 ~trace:true ()
  in
  Vm.run vm ~ms:600.0;
  Vm.trace_json vm

let test_trace_deterministic () =
  let a = traced_run () and b = traced_run () in
  check cb "some events" true (String.length a > 1000);
  check cb "byte-identical across equal-seed runs" true (String.equal a b)

let test_trace_has_gc_phases () =
  let json = traced_run () in
  let has s = contains json s in
  check cb "stw-pause span" true (has {|"name":"stw-pause"|});
  check cb "concurrent-mark span" true (has {|"name":"concurrent-mark"|});
  check cb "sweep events" true (has {|"name":"sweep-chunk"|})

(* [Vm.write_trace] streams the export through a fixed buffer; the file
   must hold exactly [Vm.trace_json]'s bytes.  The configurations are
   test_golden's: one traced SPECjbb-like VM per kernel path. *)
let test_write_trace_streams_json () =
  let module Heap = Cgc_heap.Heap in
  let module Weakmem = Cgc_smp.Weakmem in
  let module Txmix = Cgc_workloads.Txmix in
  let run ?(wm_mode = Weakmem.Sc) ?(fence_policy = Heap.Batched)
      ?(ms = 150.0) gc =
    let vm =
      Vm.create
        (Vm.config ~heap_mb:12.0 ~ncpus:4 ~seed:3 ~gc ~wm_mode ~fence_policy
           ~trace:true ())
    in
    let profile =
      Txmix.scale_residency Cgc_workloads.Specjbb.base_profile
        ~target_slots:
          (int_of_float (float_of_int (Heap.nslots (Vm.heap vm)) *. 0.6) / 4)
    in
    for w = 1 to 4 do
      Vm.spawn_mutator vm ~name:(Printf.sprintf "w%d" w) (Txmix.body profile)
    done;
    Vm.run vm ~ms;
    vm
  in
  let cgc = Config.default in
  List.iter
    (fun (name, vm) ->
      let path = Filename.temp_file "cgcsim-trace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Vm.write_trace vm path;
          let written = In_channel.with_open_bin path In_channel.input_all in
          check cb (name ^ ": longer than one buffer") true
            (String.length written > 65536);
          check cb (name ^ ": file = trace_json") true
            (String.equal written (Vm.trace_json vm))))
    [
      ("cgc", run cgc);
      ("compaction", run { cgc with Config.compaction = true });
      ("lazy sweep", run { cgc with Config.lazy_sweep = true });
      ( "stealing",
        run { Config.stw with Config.load_balance = Config.Stealing } );
      ("naive fences", run ~fence_policy:Heap.Naive cgc);
      ("relaxed memory", run ~wm_mode:Weakmem.Relaxed cgc);
      ("gen", run ~ms:400.0 Config.gen);
    ]

let test_untraced_run_emits_nothing () =
  let vm =
    Cgc_workloads.Specjbb.setup ~warehouses:2 ~gc:Config.default
      ~heap_mb:16.0 ~ncpus:2 ~seed:5 ()
  in
  Vm.run vm ~ms:300.0;
  check ci "no events" 0 (Obs.emitted (Vm.obs vm))

(* ---------------- Chunked rings and the merged event view ---------------- *)

(* Events per storage chunk, as [Ring] allocates them. *)
let chunk = 1024

(* A chunked ring against the obvious model: every event since the last
   clear, of which the newest [cap] survive.  Capacities straddle the
   chunk size, where the cursor's chunk hops and wraps live. *)
let ring_model_test =
  QCheck.Test.make ~name:"ring: chunked storage = drop-oldest list model"
    ~count:150
    QCheck.(
      pair
        (oneof
           [
             oneofl [ 1; chunk - 1; chunk; chunk + 1 ];
             int_range 1 (3 * chunk);
           ])
        (list_of_size
           Gen.(int_range 0 (5 * chunk))
           (make
              Gen.(
                frequency [ (1, return (-1)); (400, int_bound 1_000_000) ]))))
    (fun (cap, ops) ->
      let r = Ring.create ~capacity:cap in
      let ncodes = List.length Event.all_codes in
      let since_clear = ref [] in
      let agrees () =
        let all = List.rev !since_clear in
        let n = List.length all in
        let kept = List.filteri (fun i _ -> i >= n - cap) all in
        Ring.length r = List.length kept
        && Ring.dropped r = max 0 (n - cap)
        && Ring.to_list r = kept
      in
      List.for_all Fun.id
        (List.mapi
           (fun i op ->
             if op < 0 then begin
               let ok = agrees () in
               Ring.clear r;
               since_clear := [];
               ok
             end
             else begin
               let e =
                 {
                   Event.ts = op;
                   dur = (i mod 5) - 1;
                   tid = i;
                   code = List.nth Event.all_codes (i mod ncodes);
                   arg = -i;
                 }
               in
               Ring.add r e;
               since_clear := e :: !since_clear;
               true
             end)
           ops)
      && agrees ())

(* The same model at every count around each wrap, where the oldest
   event sits at a chunk's edge or at slot 0. *)
let test_ring_wrap_boundaries () =
  List.iter
    (fun cap ->
      List.iter
        (fun n ->
          let r = Ring.create ~capacity:cap in
          for i = 1 to n do
            Ring.add r (ev i)
          done;
          let want = List.init (min n cap) (fun i -> max 0 (n - cap) + i + 1) in
          check (Alcotest.list ci)
            (Printf.sprintf "cap %d, %d events" cap n)
            want
            (List.map (fun e -> e.Event.ts) (Ring.to_list r));
          check ci "dropped" (max 0 (n - cap)) (Ring.dropped r))
        [ cap - 1; cap; cap + 1; (2 * cap) - 1; 2 * cap; (2 * cap) + 1; 3 * cap ])
    [ 1; 2; chunk - 1; chunk; chunk + 1; 2 * chunk; (2 * chunk) + 3 ]

(* Appending allocates the chunks the events land in and nothing per
   event: N events cost at most 5N words plus one chunk, far below a
   capacity-sized array. *)
let test_ring_allocation_bound () =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let n = 100_000 in
  let r = Ring.create ~capacity:(1 lsl 17) in
  (* A major cycle left in flight by earlier tests inflates the counters
     of the next allocations; start from a finished one. *)
  Gc.full_major ();
  let before = words () in
  for i = 1 to n do
    Ring.add_fields r ~ts:i ~dur:(-1) ~tid:0 ~code:Event.Packet_get ~arg:i
  done;
  let used = words () -. before in
  check cb
    (Printf.sprintf "%.0f words for %d events" used n)
    true
    (used <= float_of_int ((5 * n) + (5 * chunk) + 1))

(* The merged view must be the stable ts-sort of the per-thread streams
   concatenated in tid order, drops included — exactly what the
   list-based implementation produced.  The packed-key radix sort of
   (ring, slot) handles inside [Obs] is an implementation detail this
   pins down. *)
let merge_order_test ?(count = 300) ?(cap = QCheck.Gen.return 8)
    ?(events = QCheck.small_list) ~name ts_gen =
  QCheck.Test.make ~name ~count
    QCheck.(pair (make cap) (events (pair (int_bound 3) ts_gen)))
    (fun (cap, evs) ->
      let clock = Clock.manual () in
      let o = Obs.create ~ring_capacity:cap clock in
      List.iteri
        (fun i (t, ts) ->
          clock.tid <- t;
          clock.base <- ts;
          Obs.instant o ~arg:i Event.Cycle_start)
        evs;
      let expected =
        let tids = List.sort_uniq compare (List.map fst evs) in
        List.concat_map
          (fun t ->
            let stream =
              List.filteri (fun _ _ -> true) evs
              |> List.mapi (fun i (t', ts) -> (t', ts, i))
              |> List.filter (fun (t', _, _) -> t' = t)
            in
            let n = List.length stream in
            let drop = max 0 (n - cap) in
            List.filteri (fun i _ -> i >= drop) stream)
          tids
        |> List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b)
        |> List.map (fun (t, ts, i) -> (ts, t, i))
      in
      let got =
        List.map
          (fun e -> (e.Event.ts, e.Event.tid, e.Event.arg))
          (Obs.events o)
      in
      if got <> expected then QCheck.Test.fail_report "merge order mismatch";
      true)

let obs_events_array_order_test =
  merge_order_test ~name:"obs: events_array is the stable per-tid merge"
    (QCheck.int_bound 50)

(* Timestamps of one or two set bits anywhere in 40: every radix pass
   sees values that differ in only its own digit, and ties stay
   frequent. *)
let obs_wide_ts_order_test =
  merge_order_test ~name:"obs: merge stays stable across radix passes"
    QCheck.(
      map
        (fun (a, b) -> (1 lsl a) lor (1 lsl b))
        (pair (int_bound 40) (int_bound 40)))

(* Rings that wrap, several chunks deep, with the capacities around the
   chunk size. *)
let obs_wrapped_rings_order_test =
  merge_order_test ~count:40 ~name:"obs: merge of wrapped chunked rings"
    ~cap:QCheck.Gen.(oneofl [ chunk - 1; chunk; chunk + 1; 700 ])
    ~events:QCheck.(list_of_size Gen.(int_range 0 (6 * chunk)))
    (QCheck.int_bound 2000)

(* The sort is cached on the sink: an emit or a clear after an export
   must not let a later read reuse the stale order. *)
let test_sorted_cache_invalidated () =
  let emit clock o (tid, ts) =
    clock.Clock.tid <- tid;
    clock.Clock.base <- ts;
    Obs.instant o ~arg:ts Event.Cycle_start
  in
  let first = [ (0, 50); (1, 10); (0, 70) ]
  and later = [ (2, 5); (1, 60); (0, 80) ] in
  let fresh evs =
    let clock = Clock.manual () in
    let o = Obs.create clock in
    List.iter (emit clock o) evs;
    o
  in
  let clock = Clock.manual () in
  let o = Obs.create clock in
  List.iter (emit clock o) first;
  ignore (Export.chrome_obs ~cycles_per_us:550.0 o);
  List.iter (emit clock o) later;
  let whole = fresh (first @ later) in
  check cb "events after an emit" true (Obs.events o = Obs.events whole);
  check Alcotest.string "export after an emit"
    (Export.chrome_obs ~cycles_per_us:550.0 whole)
    (Export.chrome_obs ~cycles_per_us:550.0 o);
  (* Clear, then as many emits as before: the count matches the cached
     one, the events do not. *)
  Obs.clear o;
  let again = [ (3, 1); (3, 2); (1, 3); (0, 4); (2, 0); (1, 9) ] in
  List.iter (emit clock o) again;
  check cb "events after a clear" true (Obs.events o = Obs.events (fresh again))

(* Writing straight from the sink's rings gives the bytes the record
   path gives. *)
let chrome_obs_matches_records_test =
  QCheck.Test.make ~name:"export: chrome_obs = chrome_json (list)" ~count:200
    QCheck.(
      small_list
        (quad (int_bound 3) (int_bound 1_000_000) (int_range (-1) 5000)
           (int_bound (List.length Event.all_codes - 1))))
    (fun evs ->
      let clock = Clock.manual () in
      let o = Obs.create ~ring_capacity:8 clock in
      List.iteri
        (fun i (t, ts, dur, k) ->
          clock.tid <- t;
          clock.base <- ts + max 0 dur;
          let code = List.nth Event.all_codes k in
          if dur < 0 then Obs.instant o ~arg:(i - 3) code
          else Obs.span o ~arg:i ~start:ts code)
        evs;
      String.equal
        (Export.chrome_obs ~cycles_per_us:550.0 o)
        (Export.chrome_json ~emitted:(Obs.emitted o) ~dropped:(Obs.dropped o)
           ~cycles_per_us:550.0 (Obs.events o)))

(* ------------------------ Documented tables ------------------------ *)

(* OBSERVABILITY.md's event catalogue lists every code once, with the
   name and category of Event's table, which is in [index] order. *)
let test_catalogue_matches_event () =
  check
    Alcotest.(list int)
    "table in index order"
    (List.init (List.length Event.all_codes) Fun.id)
    (List.map Event.index Event.all_codes);
  Doc_table.check ~doc:"OBSERVABILITY.md"
    ~header:"| name | kind | category | arg | emitted by |" ~columns:[ 0; 2 ]
    (List.map (fun c -> [ Event.name c; Event.cat c ]) Event.all_codes)

(* ...and its fence-site table decodes fence-flush's [args.v]. *)
let test_fence_sites_match () =
  Doc_table.check ~doc:"OBSERVABILITY.md" ~header:"| index | name | counts |"
    ~columns:[ 0; 1 ]
    (List.map
       (fun s -> [ string_of_int (Fence.site_index s); Fence.site_name s ])
       Fence.all_sites)

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "percentiles vs sort" `Quick
            test_hist_percentiles_vs_sort;
          Alcotest.test_case "exact moments" `Quick test_hist_exact_moments;
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "merge" `Quick test_hist_merge;
        ] );
      ( "ring",
        [
          Alcotest.test_case "overflow keeps newest" `Quick
            test_ring_keeps_newest;
          Alcotest.test_case "no overflow below capacity" `Quick
            test_ring_no_overflow;
          QCheck_alcotest.to_alcotest ring_model_test;
          Alcotest.test_case "wrap boundaries" `Quick test_ring_wrap_boundaries;
          Alcotest.test_case "appends allocate only their chunks" `Quick
            test_ring_allocation_bound;
        ] );
      ( "sink",
        [
          Alcotest.test_case "null sink is inert" `Quick
            test_null_sink_emits_nothing;
          Alcotest.test_case "armed sink merges and orders" `Quick
            test_armed_sink_orders_events;
          QCheck_alcotest.to_alcotest obs_events_array_order_test;
          QCheck_alcotest.to_alcotest obs_wide_ts_order_test;
          QCheck_alcotest.to_alcotest obs_wrapped_rings_order_test;
          Alcotest.test_case "sort cache invalidated by emit and clear" `Quick
            test_sorted_cache_invalidated;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape;
          Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
          QCheck_alcotest.to_alcotest chrome_obs_matches_records_test;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "byte-identical traces" `Slow
            test_trace_deterministic;
          Alcotest.test_case "gc phases present" `Slow test_trace_has_gc_phases;
          Alcotest.test_case "write_trace streams trace_json's bytes" `Slow
            test_write_trace_streams_json;
          Alcotest.test_case "zero-cost when off" `Slow
            test_untraced_run_emits_nothing;
        ] );
      ( "docs",
        [
          Alcotest.test_case "event catalogue matches Event" `Quick
            test_catalogue_matches_event;
          Alcotest.test_case "fence sites match Fence" `Quick
            test_fence_sites_match;
        ] );
    ]
