(* Tests for the bench harness: the perf-smoke gate (Perf_gate.check, a
   pure function of the baseline and perfbench's JSON lines) and the
   exit code of bench/main.exe on a malformed command line. *)

module Json = Cgc_prof.Json

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let baseline =
  match
    Json.parse
      {|{"jbb": {"sim_mcycles_per_ref_s": {"value": 3000.0, "tolerance": 0.1, "better": "higher"},
                 "tracer.host_ns_per_slot": {"value": 20.0, "tolerance": 0.3, "better": "lower"}}}|}
  with
  | Ok j -> j
  | Error e -> failwith e

(* perfbench's two lines for one workload: --trace 0 (end-to-end) and
   --trace 1 (per-layer, with the reference kernel at its nominal
   1500 us, so no scaling). *)
let lines ?(correct = true) ?(failed = 0) ~mcycles ~ns_per_slot () =
  [
    Printf.sprintf
      {|{"correct": %b, "attempted": 1000, "failed": %d, "metrics": {"sim_mcycles_per_ref_s": {"value": %g, "unit": "Mcycle/ref-s"}}}|}
      correct failed mcycles;
    Printf.sprintf
      {|{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"ref.kernel_us": {"value": 1500, "unit": "us"}, "tracer.host_ns_per_slot": {"value": %g, "unit": "ns"}}}|}
      ns_per_slot;
  ]

let failures outputs =
  Perf_gate.check ~baseline outputs
  |> List.filter_map (fun (ok, s) -> if ok then None else Some s)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_within_tolerance_passes () =
  check (Alcotest.list Alcotest.string) "no failures" []
    (failures [ ("jbb", lines ~mcycles:2800.0 ~ns_per_slot:25.0 ()) ])

let test_past_tolerance_fails () =
  match failures [ ("jbb", lines ~mcycles:3000.0 ~ns_per_slot:27.0 ()) ] with
  | [ f ] ->
      check cb "names the workload" true (contains f "jbb");
      check cb "names the metric" true (contains f "tracer.host_ns_per_slot")
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs)

let test_kernel_scaling () =
  (* 30 raw ns on a host whose kernel took 2250 us is 20 reference ns. *)
  let slow_host =
    [
      List.hd (lines ~mcycles:3000.0 ~ns_per_slot:0.0 ());
      {|{"correct": true, "attempted": 1, "failed": 0, "metrics": {"ref.kernel_us": {"value": 2250, "unit": "us"}, "tracer.host_ns_per_slot": {"value": 30, "unit": "ns"}}}|};
    ]
  in
  check (Alcotest.list Alcotest.string) "scaled to reference units" []
    (failures [ ("jbb", slow_host) ])

let test_incorrect_or_failed_fails () =
  check cb "correct: false fails" true
    (failures
       [ ("jbb", lines ~correct:false ~mcycles:3000.0 ~ns_per_slot:20.0 ()) ]
    <> []);
  check cb "a failed operation fails" true
    (failures [ ("jbb", lines ~failed:1 ~mcycles:3000.0 ~ns_per_slot:20.0 ()) ]
    <> [])

let test_missing_metric_fails () =
  (match failures [ ("jbb", [ List.hd (lines ~mcycles:3000.0 ~ns_per_slot:20.0 ()) ]) ] with
  | [ f ] -> check cb "names the missing metric" true (contains f "tracer.host_ns_per_slot")
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs));
  check cb "a workload without output fails" true (failures [] <> [])

(* A malformed --ms, --jobs or --workload, or an unknown sub-command,
   is a usage error (1), not 2 (simulated heap exhausted).  Each flag
   names its sub-command, so the converter is what rejects it. *)
let test_bad_flags_exit_usage () =
  List.iter
    (fun args ->
      check ci args Cgc_cli.Exit_codes.usage
        (Sys.command ("./main.exe " ^ args ^ " > /dev/null 2>&1")))
    [
      "profile --ms abc";
      "profile --ms 0";
      "profile --workload bogus";
      "matrix --jobs x";
      "matrix --jobs 0";
      "no-such-target";
    ]

let () =
  Alcotest.run "bench"
    [
      ( "perf-gate",
        [
          Alcotest.test_case "within tolerance passes" `Quick
            test_within_tolerance_passes;
          Alcotest.test_case "past tolerance fails, naming workload and metric"
            `Quick test_past_tolerance_fails;
          Alcotest.test_case "per-layer times scale by the reference kernel"
            `Quick test_kernel_scaling;
          Alcotest.test_case "correct false or failed ops fail" `Quick
            test_incorrect_or_failed_fails;
          Alcotest.test_case "missing metric fails" `Quick
            test_missing_metric_fails;
        ] );
      ( "main",
        [
          Alcotest.test_case "bad flags exit usage" `Quick
            test_bad_flags_exit_usage;
        ] );
    ]
