(* Tests for the profiler: probe series aggregates, the online sampler,
   derived-metric analysis on synthetic event streams with hand-computed
   answers, Chrome-trace / CSV round-trips (parse then re-export,
   byte-identical), schema rejection, and the headline reproduction
   property: the trace-derived Table 4 load-balance statistics match
   what the collector accumulated into Gstats online. *)

module Event = Cgc_obs.Event
module Obs = Cgc_obs.Obs
module Export = Cgc_obs.Export
module Series = Cgc_prof.Series
module Sampler = Cgc_prof.Sampler
module Analysis = Cgc_prof.Analysis
module Json = Cgc_prof.Json
module Report = Cgc_prof.Report
module Vm = Cgc_runtime.Vm
module Config = Cgc_core.Config
module Stats = Cgc_util.Stats

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

let replace_once ~sub ~by s =
  let n = String.length s and nn = String.length sub in
  let rec go i =
    if i + nn > n then s
    else if String.sub s i nn = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + nn) (n - i - nn)
    else go (i + 1)
  in
  go 0

(* ----------------------------- Series ---------------------------- *)

let test_series_aggregates () =
  let s = Series.create ~name:"x" () in
  check ci "empty count" 0 (Series.count s);
  check cf "empty mean" 0.0 (Series.mean s);
  for i = 1 to 10 do
    Series.add s (float_of_int i)
  done;
  check ci "count is all points ever" 10 (Series.count s);
  check cf "min over all points" 1.0 (Series.min s);
  check cf "max over all points" 10.0 (Series.max s);
  check cf "mean over all points" 5.5 (Series.mean s);
  Series.clear s;
  check ci "clear resets count" 0 (Series.count s);
  check cf "clear resets aggregates" 0.0 (Series.mean s)

(* ----------------------------- Sampler --------------------------- *)

let test_sampler_alignment_and_stride () =
  let p = Sampler.create ~interval:100 () in
  let n = ref 0 in
  Sampler.add_probe p ~name:"every-tick" (fun () ->
      incr n;
      float_of_int !n);
  Sampler.add_probe p ~name:"constant" (fun () -> 42.0);
  (* Ticks at 0, 130 and 450 sample at the boundaries 0, 100 and 400;
     the 50 and 460 ticks fall before the next deadline and must not
     sample. *)
  let dues =
    List.map
      (fun now ->
        Sampler.tick p ~now;
        Sampler.due p)
      [ 0; 50; 130; 450; 460 ]
  in
  check ci "three samples taken" 3 (Sampler.ticks p);
  check (Alcotest.list ci) "deadlines one interval past each boundary"
    [ 100; 100; 200; 500; 500 ] dues;
  let a =
    match Sampler.find p "every-tick" with Some s -> s | None -> assert false
  in
  check ci "every-tick sampled once per tick" 3 (Series.count a);
  check cf "every-tick samples 1, 2, 3" 2.0 (Series.mean a);
  check cb "unknown probe" true (Sampler.find p "nope" = None);
  check ci "registration order preserved" 2 (List.length (Sampler.series p));
  Sampler.clear p;
  check ci "clear resets ticks" 0 (Sampler.ticks p);
  (* After clear the deadline is back at 0, so sampling restarts. *)
  Sampler.tick p ~now:0;
  check ci "sampling restarts after clear" 1 (Sampler.ticks p)

(* OBSERVABILITY.md's probe table names every probe a profiled gen-mode
   VM with a server registers. *)
let test_probe_table_matches_sampler () =
  let vm = Vm.create (Vm.config ~heap_mb:8.0 ~gc:Config.gen ()) in
  Vm.enable_profiler vm;
  let module Server = Cgc_server.Server in
  ignore (Server.create (Server.cfg ~rate_per_s:1000.0 ()) vm);
  let p = match Vm.profiler vm with Some p -> p | None -> assert false in
  Doc_table.check ~doc:"OBSERVABILITY.md"
    ~header:"| name | samples | registered by |" ~columns:[ 0 ]
    (List.map (fun s -> [ Series.name s ]) (Sampler.series p))

(* ----------------------------- Analysis -------------------------- *)

(* Hand-checkable synthetic trace at 1 cycle/us (1000 cycles/ms):
   10 ms of wall time, two mutators, one 1 ms pause, 1.5 ms of tracing
   increments.  Every derived number below is computed by hand. *)

let ev ?(dur = -1) ?(tid = 0) ?(arg = 0) ts code =
  { Event.ts; dur; tid; code; arg }

let synthetic =
  [
    ev 0 Event.Cycle_start ~arg:1;
    ev 1000 Event.Mut_increment ~dur:500 ~tid:1 ~arg:100;
    ev 1500 Event.Incr_factor ~tid:1 ~arg:1_000_000;
    ev 3000 Event.Stw_pause ~dur:1000;
    ev 6000 Event.Mut_increment ~dur:1000 ~tid:2 ~arg:300;
    ev 7000 Event.Incr_factor ~tid:2 ~arg:2_000_000;
    ev 10_000 Event.Cycle_end ~arg:1;
  ]

let test_analysis_overview () =
  let a = Analysis.analyse ~cycles_per_us:1.0 synthetic in
  check cf "wall" 10.0 a.Analysis.wall_ms;
  check ci "events" 7 a.Analysis.n_events;
  check ci "mutators" 2 a.Analysis.n_mutators;
  check ci "cycles" 1 a.Analysis.n_cycles;
  let p = a.Analysis.pauses in
  check ci "one pause" 1 p.Analysis.pause_count;
  check cf "pause mean" 1.0 p.Analysis.pause_mean_ms;
  check cf "pause max" 1.0 p.Analysis.pause_max_ms;
  let incr_row =
    List.find
      (fun (r : Analysis.phase_row) -> r.Analysis.code = Event.Mut_increment)
      a.Analysis.phases
  in
  check ci "increment count attributed" 2 incr_row.Analysis.count;
  check cf "increment time attributed" 1.5 incr_row.Analysis.total_ms

let test_analysis_mmu_exact () =
  (* One 10 ms window: util = 1 - 1/10 - 1.5/(10*2) = 0.825.
     Five 2 ms windows: [0.875; 0.5; 1.0; 0.75; 1.0] -> min 0.5,
     avg 0.825. *)
  let a =
    Analysis.analyse ~mmu_windows_ms:[ 10.0; 2.0 ] ~cycles_per_us:1.0
      synthetic
  in
  match a.Analysis.mmu with
  | [ w10; w2 ] ->
      check cf "10ms window count" 1.0 (float_of_int w10.Analysis.n_windows);
      check cf "10ms mmu" 0.825 w10.Analysis.mmu;
      check cf "10ms avg" 0.825 w10.Analysis.avg_util;
      check ci "2ms window count" 5 w2.Analysis.n_windows;
      check cf "2ms mmu" 0.5 w2.Analysis.mmu;
      check cf "2ms avg" 0.825 w2.Analysis.avg_util
  | _ -> Alcotest.fail "expected two mmu points"

let test_utilization_timeline () =
  let tl = Analysis.utilization_timeline ~cycles_per_us:1.0 ~window_ms:2.0 synthetic in
  check
    (Alcotest.list (Alcotest.pair cf cf))
    "per-window utilization"
    [ (0.0, 0.875); (2.0, 0.5); (4.0, 1.0); (6.0, 0.75); (8.0, 1.0) ]
    tl

let test_trailing_partial_window () =
  (* 9 ms trace, 2 ms windows: the last window is only 1 ms long and
     holds a 0.5 ms pause -> utilization 0.5, not 0.75. *)
  let events =
    [
      ev 0 Event.Cycle_start ~arg:1;
      ev 8500 Event.Stw_pause ~dur:500;
    ]
  in
  let tl = Analysis.utilization_timeline ~cycles_per_us:1.0 ~window_ms:2.0 events in
  match List.rev tl with
  | (start, util) :: _ ->
      check cf "last window start" 8.0 start;
      check cf "normalised by actual length" 0.5 util
  | [] -> Alcotest.fail "empty timeline"

let test_balance_from_events () =
  let a = Analysis.analyse ~cycles_per_us:1.0 synthetic in
  let b = a.Analysis.balance in
  (* Factors 1.0 and 2.0 within one cycle: mean 1.5, per-cycle
     population stddev 0.5. *)
  check cf "factor mean" 1.5 b.Analysis.factor_mean;
  check ci "factor count" 2 b.Analysis.factor_count;
  check cf "fairness" 0.5 b.Analysis.fairness;
  check ci "fairness cycles" 1 b.Analysis.fairness_cycles;
  (* Busy times 0.5 and 1.0 ms: mean 0.75, population stddev 0.25. *)
  check cf "busy mean" 0.75 b.Analysis.busy_mean_ms;
  check cf "busy stddev" 0.25 b.Analysis.busy_stddev_ms;
  check cf "busy cv" (1.0 /. 3.0) b.Analysis.busy_cv;
  check cf "slots cv" 0.5 b.Analysis.slots_cv;
  match b.Analysis.tracers with
  | [ t1; t2 ] ->
      check ci "tid order" 1 t1.Analysis.tid;
      check ci "tid 1 slots" 100 t1.Analysis.slots;
      check ci "tid 2 slots" 300 t2.Analysis.slots
  | _ -> Alcotest.fail "expected two tracer rows"

let test_single_factor_cycle_no_fairness () =
  (* A cycle with a single factor sample contributes no fairness
     sample — same rule as the collector's online accumulation. *)
  let events =
    [
      ev 0 Event.Cycle_start ~arg:1;
      ev 100 Event.Incr_factor ~tid:1 ~arg:3_000_000;
      ev 200 Event.Cycle_end ~arg:1;
    ]
  in
  let b = (Analysis.analyse ~cycles_per_us:1.0 events).Analysis.balance in
  check cf "factor mean" 3.0 b.Analysis.factor_mean;
  check ci "no fairness sample" 0 b.Analysis.fairness_cycles

let test_report_rendering () =
  let a = Analysis.analyse ~cycles_per_us:1.0 synthetic in
  let clean = Report.summary a in
  check cb "no warning when nothing dropped" false (contains clean "WARNING");
  let lossy = Report.summary ~dropped:5 a in
  check cb "warning on drops" true (contains lossy "WARNING");
  check cb "warning names the count" true (contains lossy "5 events");
  let json = Json.to_string (Report.to_json ~label:"t" ~dropped:5 a) in
  check cb "json carries the schema tag" true
    (contains json Report.analysis_schema);
  check cb "json carries the drop count" true
    (contains json "\"dropped\":5")

(* --------------------------- Round-trips ------------------------- *)

let test_chrome_roundtrip_synthetic () =
  let json =
    Export.chrome_json ~emitted:9 ~dropped:2 ~cycles_per_us:550.0 synthetic
  in
  match Export.parse_chrome_json json with
  | Error msg -> Alcotest.fail msg
  | Ok (meta, events) ->
      check cf "cycles per us" 550.0 meta.Export.cycles_per_us;
      check ci "emitted" 9 meta.Export.emitted;
      check ci "dropped" 2 meta.Export.dropped;
      check cb "events survive exactly" true (events = synthetic);
      let again =
        Export.chrome_json ~emitted:meta.Export.emitted
          ~dropped:meta.Export.dropped ~cycles_per_us:meta.Export.cycles_per_us
          events
      in
      check cb "re-export is byte-identical" true (String.equal json again)

let traced_vm () =
  let gc = { Config.default with Config.n_background = 2 } in
  let vm =
    Cgc_workloads.Specjbb.setup ~warehouses:4 ~gc ~heap_mb:24.0 ~ncpus:2
      ~seed:5 ~trace:true ()
  in
  Vm.run vm ~ms:600.0;
  vm

let test_chrome_roundtrip_real_trace () =
  let vm = traced_vm () in
  let json = Vm.trace_json vm in
  match Export.parse_chrome_json json with
  | Error msg -> Alcotest.fail msg
  | Ok (meta, events) ->
      let o = Vm.obs vm in
      check ci "no drops in this run" 0 (Obs.dropped o);
      check ci "all events recovered" (Obs.emitted o) (List.length events);
      check cb "events identical to the live sink" true
        (events = Obs.events o);
      let again =
        Export.chrome_json ~emitted:meta.Export.emitted
          ~dropped:meta.Export.dropped ~cycles_per_us:meta.Export.cycles_per_us
          events
      in
      check cb "re-export is byte-identical" true (String.equal json again)

let test_chrome_schema_rejection () =
  let good = Export.chrome_json ~cycles_per_us:550.0 synthetic in
  let bad =
    replace_once ~sub:Export.trace_schema ~by:"cgcsim-trace-v999" good
  in
  (match Export.parse_chrome_json bad with
  | Ok _ -> Alcotest.fail "parsed a trace with a foreign schema tag"
  | Error msg ->
      check cb "names the schema" true (contains msg "cgcsim-trace-v999"));
  match Export.parse_chrome_json "{\"not\":\"a trace\"}" with
  | Ok _ -> Alcotest.fail "parsed garbage"
  | Error _ -> ()

(* ---------------------- Exact trace codec ------------------------ *)

(* Rates at which odd cycle counts sit exactly on a half thousandth of a
   microsecond (2e6 / rate is an odd power of five), so the float
   quotient Printf rounds is a near-tie and the writer must fall back. *)
let tie_rates = [ 400_000; 80_000; 16_000; 3_200; 640; 128 ]

let rate_gen =
  QCheck.Gen.(oneof [ int_range 1 1_999_999; oneofl (550_000 :: tie_rates) ])

let cycles_gen =
  QCheck.Gen.(oneof [ int_range 0 (1 lsl 42); int_range 0 10_000 ])
let us_of_rate cpms = float_of_int cpms /. 1000.0
let printf_us ~cycles_per_us c =
  Printf.sprintf "%.3f" (float_of_int c /. cycles_per_us)

let format_us_matches_printf_test =
  QCheck.Test.make ~name:"export: fixed-point ts/dur equal %.3f" ~count:20_000
    QCheck.(make Gen.(pair rate_gen cycles_gen))
    (fun (cpms, c) ->
      let cycles_per_us = us_of_rate cpms in
      let got = Export.format_us ~cycles_per_us c
      and want = printf_us ~cycles_per_us c in
      if got <> want then
        QCheck.Test.fail_reportf "rate %d cycles %d: %s, want %s" cpms c got
          want;
      true)

let test_format_us_near_ties () =
  List.iter
    (fun cpms ->
      let cycles_per_us = us_of_rate cpms in
      for c = 0 to 4000 do
        check Alcotest.string
          (Printf.sprintf "rate %d cycles %d" cpms c)
          (printf_us ~cycles_per_us c)
          (Export.format_us ~cycles_per_us c)
      done)
    (550_000 :: 1 :: 999 :: 1_999_999 :: tie_rates)

let event_gen =
  let open QCheck.Gen in
  let* ts = cycles_gen in
  let* dur = oneof [ return (-1); cycles_gen ] in
  let* tid = oneof [ int_range (-1) 16; int ] in
  let* code = oneofl Event.all_codes in
  let+ arg = oneof [ small_signed_int; int ] in
  { Event.ts; dur; tid; code; arg }

(* Round-tripping is exact below 1000 cycles/us up to the float error,
   which stays under 0.002 cycles for timestamps below 2^42: rates up to
   990 cycles/us leave that margin. *)
let chrome_roundtrip_test =
  QCheck.Test.make ~name:"export: parse (export evs) = evs, byte-exact back"
    ~count:300
    QCheck.(
      make
        Gen.(
          triple (int_range 1 990_000) (list_size (int_range 0 40) event_gen)
            (pair nat nat)))
    (fun (cpms, events, (emitted, dropped)) ->
      let cycles_per_us = us_of_rate cpms in
      let json = Export.chrome_json ~emitted ~dropped ~cycles_per_us events in
      match Export.parse_chrome_json json with
      | Error msg -> QCheck.Test.fail_reportf "rate %d: %s" cpms msg
      | Ok (meta, parsed) ->
          if parsed <> events then
            QCheck.Test.fail_reportf "rate %d: events differ" cpms;
          if meta.Export.emitted <> emitted || meta.Export.dropped <> dropped
          then QCheck.Test.fail_report "counters differ";
          String.equal json
            (Export.chrome_json ~emitted ~dropped
               ~cycles_per_us:meta.Export.cycles_per_us parsed))

let parse_error json =
  match Export.parse_chrome_json json with
  | Ok _ -> Alcotest.fail "parsed malformed input"
  | Error msg ->
      if not (contains msg " at byte ") then
        Alcotest.failf "error without a byte offset: %s" msg;
      msg

let test_chrome_malformed () =
  let good = Export.chrome_json ~cycles_per_us:550.0 synthetic in
  let without_tail tail =
    String.sub good 0 (String.length good - String.length tail)
  in
  (* The last event ends {..."ts":18.182,...}: cut inside that number. *)
  let last_ts = without_tail ",\"pid\":0,\"tid\":0,\"args\":{\"v\":1}}\n]}\n" in
  ignore
    (parse_error (String.sub last_ts 0 (String.length last_ts - 2)));
  ignore (parse_error (without_tail "\n]}\n"));
  let rejects what ~sub ~by ~says =
    check cb what true
      (contains (parse_error (replace_once ~sub ~by good)) says)
  in
  rejects "two decimals" ~sub:"\"ts\":1.818," ~by:"\"ts\":1.81,"
    ~says:"three decimals";
  rejects "four decimals" ~sub:"\"ts\":1.818," ~by:"\"ts\":1.8180,"
    ~says:"three decimals";
  rejects "missing tid" ~sub:",\"tid\":1" ~by:"" ~says:"tid";
  rejects "foreign category" ~sub:"\"cat\":\"pause\"" ~by:"\"cat\":\"x\""
    ~says:"pause";
  rejects "unknown name" ~sub:"stw-pause" ~by:"stw-pauze" ~says:"stw-pauze";
  rejects "integer overflow" ~sub:"\"emitted\":0"
    ~by:"\"emitted\":99999999999999999999" ~says:"out of range";
  check cb "trailing bytes" true
    (contains (parse_error (good ^ " ")) "trailing bytes")

(* Every truncation and single-byte corruption of a valid trace is an
   [Error] or (if harmless) [Ok] — never an exception. *)
let chrome_parse_total_test =
  let good =
    Export.chrome_json ~emitted:9 ~dropped:2 ~cycles_per_us:550.0 synthetic
  in
  let n = String.length good in
  QCheck.Test.make ~name:"export: the trace parser is total" ~count:2000
    QCheck.(
      make
        Gen.(
          triple (int_range 0 n) (int_range 0 (n - 1))
            (oneofl [ '0'; '9'; '.'; '-'; '"'; ','; '}'; 'x' ])))
    (fun (cut, at, c) ->
      let mutated = Bytes.of_string good in
      Bytes.set mutated at c;
      List.for_all
        (fun s ->
          match Export.parse_chrome_json s with
          | Ok _ -> true
          | Error msg -> contains msg " at byte ")
        [ String.sub good 0 cut; Bytes.to_string mutated ])

(* Digests of the exported trace bytes, recorded before the exporter was
   rewritten for speed: any change to the writer's output shows here. *)
let test_golden_trace_digests () =
  let digest vm = Digest.to_hex (Digest.string (Vm.trace_json vm)) in
  check Alcotest.string "SPECjbb trace" "a48f268dd752e38e0759f449eda9eae6"
    (digest (traced_vm ()));
  let vm =
    Vm.create
      (Vm.config ~heap_mb:16.0 ~ncpus:4 ~seed:1 ~gc:Config.gen ~trace:true ())
  in
  let module Server = Cgc_server.Server in
  ignore (Server.create (Server.cfg ~rate_per_s:6000.0 ()) vm);
  Vm.run vm ~ms:300.0;
  check Alcotest.string "gen serve trace" "5b237d81c003ed1401ba2860edc589de"
    (digest vm)

let test_csv_roundtrip () =
  let header = [ "a"; "b" ] in
  let rows =
    [ [ "plain"; "with,comma" ]; [ "with\"quote"; "multi\nline" ] ]
  in
  let out = Export.csv ~schema:"test-v1" ~header rows in
  match Export.parse_csv out with
  | Error msg -> Alcotest.fail msg
  | Ok (schema, h, rs) ->
      check cb "schema" true (schema = Some "test-v1");
      check (Alcotest.list Alcotest.string) "header" header h;
      check cb "rows survive quoting" true (rs = rows);
      let again = Export.csv ?schema ~header:h rs in
      check cb "re-export is byte-identical" true (String.equal out again)

let test_csv_untagged_has_no_schema () =
  let out = Export.csv ~header:[ "x" ] [ [ "1" ] ] in
  match Export.parse_csv out with
  | Ok (None, [ "x" ], [ [ "1" ] ]) -> ()
  | Ok _ -> Alcotest.fail "unexpected parse"
  | Error msg -> Alcotest.fail msg

(* ------------------- Table 4 reproduction ------------------------ *)

(* The acceptance property of the offline analyser: on a traced pBOB
   run (the Table 4 workload), the load-balance statistics derived from
   the event stream match what the collector accumulated into Gstats
   online, up to the 1e-6 fixed-point quantisation of the Incr_factor
   payload.  A plain run (no warmup) so the trace covers every sample
   Gstats saw. *)
let test_table4_reproduction () =
  let vm =
    Cgc_workloads.Pbob.setup ~warehouses:4 ~gc:Config.default ~terminals:10
      ~heap_mb:16.0 ~ncpus:4 ~seed:3 ~trace:true ~trace_ring:(1 lsl 15)
      ~think_mean:1_100_000 ~residency_at:(16, 0.5) ()
  in
  Vm.run vm ~ms:1000.0;
  let o = Vm.obs vm in
  check ci "trace is complete (no ring drops)" 0 (Obs.dropped o);
  let gs = Vm.gc_stats vm in
  let factors = gs.Cgc_core.Gstats.tracing_factor in
  check cb "run produced factor samples" true (Stats.count factors > 0);
  check cb "run produced fairness samples" true
    (Stats.count gs.Cgc_core.Gstats.fairness > 0);
  let a =
    Analysis.analyse ~cycles_per_us:(Vm.cycles_per_us vm) (Obs.events o)
  in
  let b = a.Analysis.balance in
  check ci "every factor sample present in the trace" (Stats.count factors)
    b.Analysis.factor_count;
  check ci "every fairness cycle present"
    (Stats.count gs.Cgc_core.Gstats.fairness)
    b.Analysis.fairness_cycles;
  check ci "completed cycles" gs.Cgc_core.Gstats.cycles a.Analysis.n_cycles;
  let tol = Alcotest.float 1e-5 in
  check tol "mean tracing factor matches Gstats" (Stats.mean factors)
    b.Analysis.factor_mean;
  check tol "fairness matches Gstats"
    (Stats.mean gs.Cgc_core.Gstats.fairness)
    b.Analysis.fairness

let () =
  Alcotest.run "prof"
    [
      ( "series",
        [
          Alcotest.test_case "lifetime aggregates" `Quick
            test_series_aggregates;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "alignment and probe stride" `Quick
            test_sampler_alignment_and_stride;
          Alcotest.test_case "probe table matches Sampler" `Quick
            test_probe_table_matches_sampler;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "overview numbers" `Quick test_analysis_overview;
          Alcotest.test_case "mmu, hand-computed" `Quick
            test_analysis_mmu_exact;
          Alcotest.test_case "utilization timeline" `Quick
            test_utilization_timeline;
          Alcotest.test_case "trailing partial window" `Quick
            test_trailing_partial_window;
          Alcotest.test_case "load balance from events" `Quick
            test_balance_from_events;
          Alcotest.test_case "single-sample cycle excluded from fairness"
            `Quick test_single_factor_cycle_no_fairness;
          Alcotest.test_case "report rendering" `Quick test_report_rendering;
        ] );
      ( "round-trip",
        [
          Alcotest.test_case "chrome json, synthetic" `Quick
            test_chrome_roundtrip_synthetic;
          Alcotest.test_case "chrome json, real trace" `Slow
            test_chrome_roundtrip_real_trace;
          Alcotest.test_case "foreign schema rejected" `Quick
            test_chrome_schema_rejection;
          QCheck_alcotest.to_alcotest format_us_matches_printf_test;
          Alcotest.test_case "fixed-point near ties" `Quick
            test_format_us_near_ties;
          QCheck_alcotest.to_alcotest chrome_roundtrip_test;
          Alcotest.test_case "malformed traces rejected" `Quick
            test_chrome_malformed;
          QCheck_alcotest.to_alcotest chrome_parse_total_test;
          Alcotest.test_case "golden trace digests" `Slow
            test_golden_trace_digests;
          Alcotest.test_case "csv" `Quick test_csv_roundtrip;
          Alcotest.test_case "csv without schema line" `Quick
            test_csv_untagged_has_no_schema;
        ] );
      ( "reproduction",
        [
          Alcotest.test_case "table 4 load balance matches Gstats" `Slow
            test_table4_reproduction;
        ] );
    ]
