(* cgcsim — command-line driver for the collector simulator.

   Run a workload under either collector with custom parameters and print
   the VM report:

     dune exec bin/cgcsim.exe -- run --workload specjbb --collector cgc \
       --warehouses 8 --heap-mb 64 --ms 4000 --tracing-rate 8

   Or run one of the paper-reproduction experiments:

     dune exec bin/cgcsim.exe -- experiment fig1 *)

open Cmdliner

module Vm = Cgc_runtime.Vm
module Config = Cgc_core.Config
module Collector = Cgc_core.Collector
module Verify = Cgc_core.Verify
module Fault = Cgc_fault.Fault
module Cluster_fault = Cgc_fault.Cluster_fault
module Exit_codes = Cgc_cli.Exit_codes

(* Parse the --inject argument: a comma-separated list of scenario names,
   or "all". *)
let parse_scenarios s =
  if s = "all" then Ok Fault.all
  else
    let names = String.split_on_char ',' (String.trim s) in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
          match Fault.of_name (String.trim n) with
          | Some sc -> go (sc :: acc) rest
          | None ->
              Error
                (Printf.sprintf
                   "unknown fault scenario %S (known: %s, or \"all\")" n
                   (String.concat ", " (List.map Fault.to_name Fault.all))))
    in
    go [] names

(* The --help scenario listings are generated from the injector modules
   themselves, so a scenario added there shows up in the docs without a
   second edit here. *)
let inject_doc =
  Printf.sprintf
    "Arm the deterministic fault injector with a comma-separated list of \
     scenarios, or $(b,all).  Scenarios: %s."
    (String.concat "; "
       (List.map
          (fun sc ->
            Printf.sprintf "$(b,%s) (%s)" (Fault.to_name sc)
              (Fault.describe sc))
          Fault.all))

let chaos_doc =
  Printf.sprintf
    "Arm one deterministic fleet chaos scenario (seeded by \
     $(b,--chaos-seed)): %s."
    (String.concat "; "
       (List.map
          (fun sc ->
            Printf.sprintf "$(b,%s) (%s)"
              (Cluster_fault.to_name sc)
              (Cluster_fault.describe sc))
          Cluster_fault.all))

(* Top-level catch for the typed failure modes: a diagnosed out-of-memory
   (the degradation ladder was exhausted), an invariant violation from
   the --verify checker, and a fleet whose own degradation ladder
   bottomed out all exit nonzero with the diagnostic record
   pretty-printed instead of an uncaught-exception backtrace. *)
let catching_failures f =
  try f () with
  | Collector.Out_of_memory d ->
      Printf.eprintf "cgcsim: %s\n" (Collector.oom_to_string d);
      exit Exit_codes.oom
  | Verify.Invariant_violation msg ->
      Printf.eprintf "cgcsim: heap invariant violated: %s\n" msg;
      exit Exit_codes.invariant
  | Cgc_cluster.Cluster.Fleet_unavailable d ->
      Printf.eprintf "cgcsim: %s\n"
        (Cgc_cluster.Cluster.unavailable_to_string d);
      exit Exit_codes.fleet

(* Turn an unwritable output path into a clean CLI error instead of an
   uncaught Sys_error. *)
let write_or_die what write file =
  try write file
  with Sys_error msg ->
    Printf.eprintf "cgcsim: cannot write %s: %s\n" what msg;
    exit Exit_codes.usage

(* The --gc axis: one spelling, three collectors.  [Config.mode_of_name]
   is the single source of truth for the names, so the CLI, the bench
   matrix and the experiment tables can never drift apart. *)
let gc_doc =
  "Collector: cgc (mostly-concurrent), gen (nursery + minor collections \
   over cgc) or stw (baseline)."

let gc_base name =
  match Config.mode_of_name name with
  | Some Config.Cgc -> Config.default
  | Some Config.Stw -> Config.stw
  | Some Config.Gen -> Config.gen
  | None ->
      Printf.eprintf "cgcsim: unknown collector %s (cgc|gen|stw)\n" name;
      exit Exit_codes.usage

let run_cmd =
  let workload =
    let doc = "Workload: specjbb, pbob or javac." in
    Arg.(value & opt string "specjbb" & info [ "workload"; "w" ] ~doc)
  in
  let collector =
    Arg.(value & opt string "cgc" & info [ "gc"; "collector"; "c" ] ~doc:gc_doc)
  in
  let warehouses =
    Arg.(value & opt int 8 & info [ "warehouses" ] ~doc:"Warehouse count.")
  in
  let heap_mb =
    Arg.(value & opt float 64.0 & info [ "heap-mb" ] ~doc:"Simulated heap size (MB).")
  in
  let ncpus = Arg.(value & opt int 4 & info [ "ncpus" ] ~doc:"Simulated CPUs.") in
  let ms =
    Arg.(value & opt float 4000.0 & info [ "ms" ] ~doc:"Simulated milliseconds to run.")
  in
  let tracing_rate =
    Arg.(value & opt float 8.0 & info [ "tracing-rate"; "k0" ] ~doc:"Tracing rate K0.")
  in
  let n_background =
    Arg.(value & opt int 4 & info [ "background" ] ~doc:"Background GC threads.")
  in
  let packets =
    Arg.(value & opt int 1000 & info [ "packets" ] ~doc:"Work packets in the pool.")
  in
  let lazy_sweep =
    Arg.(value & flag & info [ "lazy-sweep" ] ~doc:"Sweep outside the pause (section 7).")
  in
  let compaction =
    Arg.(value & flag & info [ "compaction" ] ~doc:"Evacuate one heap area per cycle (section 2.3).")
  in
  let card_passes =
    Arg.(value & opt int 1 & info [ "card-passes" ] ~doc:"Concurrent card-cleaning passes.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"SCENARIOS" ~doc:inject_doc)
  in
  let fault_seed =
    let doc = "Seed for the fault injector (default: the run seed)." in
    Arg.(value & opt (some int) None & info [ "fault-seed" ] ~doc)
  in
  let verify =
    let doc =
      "Run the heap invariant verifier at every GC cycle boundary; exit \
       nonzero on the first violation."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let trace_out =
    let doc =
      "Write a Chrome trace-event JSON file (load in Perfetto or \
       chrome://tracing).  Arms the event-tracing sink for the run."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let metrics_out =
    let doc = "Write per-GC-cycle metrics to $(docv) as CSV." in
    Arg.(
      value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let exec workload collector warehouses heap_mb ncpus ms tracing_rate
      n_background packets lazy_sweep compaction card_passes seed inject
      fault_seed verify trace_out metrics_out =
    let faults =
      match inject with
      | None -> Fault.disabled
      | Some spec -> (
          match parse_scenarios spec with
          | Ok scenarios ->
              let seed =
                match fault_seed with Some s -> s | None -> seed
              in
              Fault.create ~scenarios ~seed ()
          | Error msg ->
              Printf.eprintf "cgcsim: %s\n" msg;
              exit Exit_codes.usage)
    in
    let base = gc_base collector in
    (if base.Config.mode = Config.Gen && (compaction || lazy_sweep) then begin
       Printf.eprintf
         "cgcsim: --gc gen composes with neither --compaction nor \
          --lazy-sweep (the nursery owns the top of the arena)\n";
       exit Exit_codes.usage
     end);
    let gc =
      {
        base with
        Config.k0 = tracing_rate;
        n_background;
        n_packets = packets;
        lazy_sweep;
        compaction;
        card_passes;
        faults;
        verify;
      }
    in
    let trace = trace_out <> None in
    let vm =
      catching_failures (fun () ->
          match workload with
          | "specjbb" ->
              Cgc_workloads.Specjbb.run ~warehouses ~gc ~heap_mb ~ncpus ~seed
                ~trace ~ms ()
          | "pbob" ->
              Cgc_workloads.Pbob.run ~warehouses ~gc ~heap_mb ~ncpus ~seed
                ~trace ~ms ()
          | "javac" ->
              Cgc_workloads.Javac.run ~gc ~heap_mb ~ncpus ~seed ~trace ~ms ()
          | w ->
              Printf.eprintf "unknown workload %s (specjbb|pbob|javac)\n" w;
              exit Exit_codes.usage)
    in
    Vm.print_report vm;
    (match trace_out with
    | Some file ->
        write_or_die "trace" (Vm.write_trace vm) file;
        Printf.printf "trace written to %s\n" file
    | None -> ());
    match metrics_out with
    | Some file ->
        write_or_die "metrics" (Vm.write_metrics vm) file;
        Printf.printf "per-cycle metrics written to %s\n" file
    | None -> ()
  in
  let info =
    Cmd.info "run" ~doc:"Run a workload under the simulated collector."
  in
  Cmd.v info
    Term.(
      const exec $ workload $ collector $ warehouses $ heap_mb $ ncpus $ ms
      $ tracing_rate $ n_background $ packets $ lazy_sweep $ compaction
      $ card_passes $ seed $ inject $ fault_seed $ verify $ trace_out
      $ metrics_out)

(* ------------------------------------------------------------------ *)
(* cgcsim analyze — the offline profiler.

   Three sources, one output: derived metrics (MMU curves, load-balance
   quality, pause distribution, per-event attribution) as text tables
   and optionally as versioned JSON.

     cgcsim analyze --trace trace.json            # a written trace file
     cgcsim analyze --trace fleet                 # fleet.shard*.json traces
     cgcsim analyze --metrics runs.csv            # schema-check a CSV dump
     cgcsim analyze --workload specjbb --ms 1000  # run, then analyze live
     cgcsim analyze --report fleet.json --tails 8 # worst-span forensics
     cgcsim analyze --report fleet.json --lbo     # distilled GC cost
     cgcsim analyze --bench BENCH.json --lbo      # distill a bench matrix

   When --trace names no file, it is treated as a cluster --trace-out
   prefix and every PREFIX.shard<K>.json / PREFIX.shard<K>.r<I>.json
   trace is analyzed in turn (--fail-on-drops then covers all of them).

   Exit codes: 4 = unreadable/incompatible input (schema mismatch or a
   broken blame-conservation identity), 5 = the input lost events to
   ring overflow and --fail-on-drops was given. *)

module Analysis = Cgc_prof.Analysis
module Prof_report = Cgc_prof.Report
module Json = Cgc_prof.Json
module Tails = Cgc_prof.Tails
module Export = Cgc_obs.Export
module Obs = Cgc_obs.Obs

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let known_csv_schemas =
  [ Vm.cycles_schema; Cgc_experiments.Common.runs_schema ]

let analyze_cmd =
  let trace_in =
    let doc =
      "Analyze a Chrome trace-event JSON file written by $(b,run \
       --trace-out) (or $(b,bench)).  If $(docv) is not a file it is \
       treated as a $(b,cluster --trace-out) prefix and every \
       $(docv).shard<K>.json trace is analyzed."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let report_in =
    let doc =
      "Tail forensics on a serialised report ($(b,serve --json) or \
       $(b,cluster --json), any supported schema version): re-check the \
       blame conservation identity, then print the fleet blame \
       decomposition and the worst-request causal chains."
    in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let bench_in =
    let doc =
      "Distill the LBO GC cost from a $(b,cgcsim-bench-v1) document \
       (requires $(b,--lbo))."
    in
    Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"FILE" ~doc)
  in
  let tails_n =
    let doc = "How many worst-request causal chains to show (with --report)." in
    Arg.(value & opt int 16 & info [ "tails" ] ~docv:"N" ~doc)
  in
  let lbo =
    let doc =
      "Report the LBO-distilled GC cost: each cell's fractional latency \
       (or throughput) distance above its group's lower-bound baseline."
    in
    Arg.(value & flag & info [ "lbo" ] ~doc)
  in
  let metrics_in =
    let doc =
      "Validate a metrics CSV file ($(b,run --metrics-out) or \
       $(b,experiment --metrics-out)) against its $(b,#schema=) line and \
       summarise it."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let workload =
    let doc = "Run this workload with tracing armed and analyze it live (specjbb|pbob|javac)." in
    Arg.(value & opt (some string) None & info [ "workload"; "w" ] ~doc)
  in
  let warehouses =
    Arg.(value & opt int 8 & info [ "warehouses" ] ~doc:"Warehouse count (live run).")
  in
  let heap_mb =
    Arg.(value & opt float 64.0 & info [ "heap-mb" ] ~doc:"Heap size MB (live run).")
  in
  let ncpus = Arg.(value & opt int 4 & info [ "ncpus" ] ~doc:"CPUs (live run).") in
  let ms = Arg.(value & opt float 1000.0 & info [ "ms" ] ~doc:"Simulated ms (live run).") in
  let tracing_rate =
    Arg.(value & opt float 8.0 & info [ "tracing-rate"; "k0" ] ~doc:"Tracing rate K0 (live run).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed (live run).") in
  let trace_ring =
    Arg.(
      value
      & opt int (1 lsl 17)
      & info [ "trace-ring" ] ~doc:"Per-thread event-ring capacity (live run).")
  in
  let mmu_windows =
    let doc = "Comma-separated MMU window sizes in ms (default 1,5,20,50)." in
    Arg.(value & opt (some string) None & info [ "mmu-windows" ] ~docv:"MS,MS,..." ~doc)
  in
  let json_out =
    let doc = "Also write the analysis as $(b,cgcsim-analysis-v1) JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let fail_on_drops =
    let doc =
      "Exit 5 if the analyzed trace lost any events to ring overflow — \
       derived metrics from a truncated trace are not trustworthy."
    in
    Arg.(value & flag & info [ "fail-on-drops" ] ~doc)
  in
  let exec trace_in report_in bench_in tails_n lbo metrics_in workload
      warehouses heap_mb ncpus ms tracing_rate seed trace_ring mmu_windows
      json_out fail_on_drops =
    let mmu_windows_ms =
      match mmu_windows with
      | None -> None
      | Some spec -> (
          try
            Some
              (List.map
                 (fun s -> float_of_string (String.trim s))
                 (String.split_on_char ',' spec))
          with Failure _ ->
            Printf.eprintf "cgcsim: bad --mmu-windows %S\n" spec;
            exit Exit_codes.usage)
    in
    let finish ~label ~emitted ~dropped events cycles_per_us =
      let a = Analysis.analyse_events ?mmu_windows_ms ~cycles_per_us events in
      print_string (Prof_report.summary ~dropped a);
      (match json_out with
      | Some file ->
          write_or_die "analysis JSON"
            (fun f ->
              Export.write_file f
                (Json.to_string ~pretty:true
                   (Prof_report.to_json ~label ~emitted ~dropped a)))
            file;
          Printf.printf "analysis written to %s\n" file
      | None -> ());
      if fail_on_drops && dropped > 0 then begin
        Printf.eprintf
          "cgcsim: %d events dropped by ring overflow (--fail-on-drops)\n"
          dropped;
        exit Exit_codes.drops
      end
    in
    let analyze_trace_file ~label file =
      let contents =
        try read_file file
        with Sys_error msg ->
          Printf.eprintf "cgcsim: cannot read %s: %s\n" file msg;
          exit Exit_codes.schema
      in
      match Export.parse_chrome_json contents with
      | Error msg ->
          Printf.eprintf "cgcsim: %s: %s\n" file msg;
          exit Exit_codes.schema
      | Ok (meta, events) ->
          finish ~label ~emitted:meta.Export.emitted
            ~dropped:meta.Export.dropped (Array.of_list events)
            meta.Export.cycles_per_us
    in
    (* Expand a cluster --trace-out prefix into its per-incarnation
       trace files, sorted so the order is deterministic. *)
    let expand_trace_prefix prefix =
      let dir = Filename.dirname prefix in
      let base = Filename.basename prefix ^ ".shard" in
      let names = try Sys.readdir dir with Sys_error _ -> [||] in
      let matches =
        List.filter
          (fun n ->
            String.length n > String.length base
            && String.sub n 0 (String.length base) = base
            && Filename.check_suffix n ".json")
          (Array.to_list names)
      in
      List.map (Filename.concat dir) (List.sort compare matches)
    in
    match (trace_in, report_in, bench_in, metrics_in, workload) with
    | Some file, None, None, None, None -> (
        if Sys.file_exists file then analyze_trace_file ~label:file file
        else
          match expand_trace_prefix file with
          | [] ->
              Printf.eprintf
                "cgcsim: cannot read %s: no such file and no %s.shard*.json \
                 traces\n"
                file file;
              exit Exit_codes.schema
          | [ shard_trace ] -> analyze_trace_file ~label:shard_trace shard_trace
          | traces ->
              if json_out <> None then begin
                Printf.eprintf
                  "cgcsim: --json is not supported when --trace expands to \
                   %d shard traces\n"
                  (List.length traces);
                exit Exit_codes.usage
              end;
              List.iter
                (fun shard_trace ->
                  Printf.printf "=== %s ===\n" shard_trace;
                  analyze_trace_file ~label:shard_trace shard_trace)
                traces)
    | None, Some file, None, None, None ->
        let contents =
          try read_file file
          with Sys_error msg ->
            Printf.eprintf "cgcsim: cannot read %s: %s\n" file msg;
            exit Exit_codes.schema
        in
        let t =
          match Tails.of_report contents with
          | Ok t -> t
          | Error msg ->
              Printf.eprintf "cgcsim: %s: %s\n" file msg;
              exit Exit_codes.schema
        in
        (* Exact-span reports get the full round-trip validation,
           including the blame conservation identity. *)
        (if t.Tails.exact then
           let validate =
             if t.Tails.source = Cgc_server.Report.schema then
               Cgc_server.Report.validate
             else Cgc_cluster.Report.validate
           in
           match validate contents with
           | Ok _ -> ()
           | Error msg ->
               Printf.eprintf "cgcsim: %s: %s\n" file msg;
               exit Exit_codes.schema);
        if lbo then begin
          match Tails.lbo_of_report contents with
          | Error msg ->
              Printf.eprintf "cgcsim: %s: %s\n" file msg;
              exit Exit_codes.schema
          | Ok row ->
              print_string (Tails.lbo_text [ row ]);
              (match json_out with
              | Some out ->
                  write_or_die "LBO JSON"
                    (fun f ->
                      Export.write_file f
                        (Json.to_string ~pretty:true (Tails.lbo_json [ row ])))
                    out;
                  Printf.printf "LBO distillation written to %s\n" out
              | None -> ())
        end
        else begin
          print_string (Tails.text ~n:tails_n t);
          match json_out with
          | Some out ->
              write_or_die "tails JSON"
                (fun f ->
                  Export.write_file f
                    (Json.to_string ~pretty:true (Tails.to_json ~n:tails_n t)))
                out;
              Printf.printf "tail forensics written to %s\n" out
          | None -> ()
        end;
        if fail_on_drops && t.Tails.dropped > 0 then begin
          Printf.eprintf
            "cgcsim: %d events dropped by ring overflow across the report's \
             shards (--fail-on-drops)\n"
            t.Tails.dropped;
          exit Exit_codes.drops
        end
    | None, None, Some file, None, None ->
        if not lbo then begin
          Printf.eprintf "cgcsim: analyze --bench requires --lbo\n";
          exit Exit_codes.usage
        end;
        let contents =
          try read_file file
          with Sys_error msg ->
            Printf.eprintf "cgcsim: cannot read %s: %s\n" file msg;
            exit Exit_codes.schema
        in
        (match Tails.lbo_of_bench contents with
        | Error msg ->
            Printf.eprintf "cgcsim: %s: %s\n" file msg;
            exit Exit_codes.schema
        | Ok rows ->
            print_string (Tails.lbo_text rows);
            (match json_out with
            | Some out ->
                write_or_die "LBO JSON"
                  (fun f ->
                    Export.write_file f
                      (Json.to_string ~pretty:true (Tails.lbo_json rows)))
                  out;
                Printf.printf "LBO distillation written to %s\n" out
            | None -> ()))
    | None, None, None, Some file, None -> (
        let contents =
          try read_file file
          with Sys_error msg ->
            Printf.eprintf "cgcsim: cannot read %s: %s\n" file msg;
            exit Exit_codes.schema
        in
        match Export.parse_csv contents with
        | Error msg ->
            Printf.eprintf "cgcsim: %s: %s\n" file msg;
            exit Exit_codes.schema
        | Ok (schema, header, rows) ->
            (match schema with
            | None ->
                Printf.eprintf
                  "cgcsim: %s: no #schema= line (pre-v1 file?); known \
                   schemas: %s\n"
                  file
                  (String.concat ", " known_csv_schemas);
                exit Exit_codes.schema
            | Some s when not (List.mem s known_csv_schemas) ->
                Printf.eprintf
                  "cgcsim: %s: unsupported schema %S; known schemas: %s\n"
                  file s
                  (String.concat ", " known_csv_schemas);
                exit Exit_codes.schema
            | Some s ->
                Printf.printf "%s: schema %s, %d columns, %d rows\n" file s
                  (List.length header) (List.length rows));
            List.iter
              (fun r ->
                if List.length r <> List.length header then begin
                  Printf.eprintf
                    "cgcsim: %s: row width %d does not match header width %d\n"
                    file (List.length r) (List.length header);
                  exit Exit_codes.schema
                end)
              rows)
    | None, None, None, None, Some w ->
        let gc = { Config.default with Config.k0 = tracing_rate } in
        let vm =
          catching_failures (fun () ->
              match w with
              | "specjbb" ->
                  Cgc_workloads.Specjbb.run ~warehouses ~gc ~heap_mb ~ncpus
                    ~seed ~trace:true ~trace_ring ~ms ()
              | "pbob" ->
                  Cgc_workloads.Pbob.run ~warehouses ~gc ~heap_mb ~ncpus ~seed
                    ~trace:true ~trace_ring ~ms ()
              | "javac" ->
                  Cgc_workloads.Javac.run ~gc ~heap_mb ~ncpus ~seed ~trace:true
                    ~ms ()
              | w ->
                  Printf.eprintf "unknown workload %s (specjbb|pbob|javac)\n" w;
                  exit Exit_codes.usage)
        in
        let o = Vm.obs vm in
        finish ~label:w ~emitted:(Obs.emitted o) ~dropped:(Obs.dropped o)
          (Obs.events_array o) (Vm.cycles_per_us vm)
    | _ ->
        Printf.eprintf
          "cgcsim: analyze needs exactly one of --trace FILE, --report FILE, \
           --bench FILE, --metrics FILE or --workload NAME\n";
        exit Exit_codes.usage
  in
  let info =
    Cmd.info "analyze"
      ~doc:
        "Derive profiling metrics (MMU, load balance, pauses) from a trace \
         file, validate a metrics CSV, or run-and-analyze a workload."
  in
  Cmd.v info
    Term.(
      const exec $ trace_in $ report_in $ bench_in $ tails_n $ lbo $ metrics_in
      $ workload $ warehouses $ heap_mb $ ncpus $ ms $ tracing_rate $ seed
      $ trace_ring $ mmu_windows $ json_out $ fail_on_drops)

(* ------------------------------------------------------------------ *)
(* cgcsim serve — the open-loop request/latency subsystem.

   A deterministic server simulation: an arrival process (Poisson,
   constant-rate or bursty) feeds a bounded queue drained by worker
   mutators, with drop-newest shedding and an optional admission
   throttle.  Prints an SLO report (end-to-end latency decomposed into
   queueing / service / GC inflation) and optionally writes it as JSON
   under the Server_report.schema tag.

     cgcsim serve --rate 6000 --collector stw --heap-mb 24 --ms 2000 \
       --slo-ms 50 --json report.json

   Exit code 6: an SLO was configured (--slo-ms) and attainment fell
   below --slo-target. *)

module Server = Cgc_server.Server
module Server_report = Cgc_server.Report
module Arrival = Cgc_server.Arrival

let serve_cmd =
  let rate =
    Arg.(value & opt float 4000.0 & info [ "rate" ] ~doc:"Offered load, requests per simulated second.")
  in
  let arrival =
    let doc = "Arrival process: poisson, constant or bursty." in
    Arg.(value & opt string "poisson" & info [ "arrival" ] ~doc)
  in
  let burst =
    let doc =
      "Bursty on/off windows as $(b,ON_MS,OFF_MS,FACTOR) (rate is \
       FACTOR$(b,x) during bursts, reduced between them to preserve the \
       average).  Implies $(b,--arrival bursty)."
    in
    Arg.(value & opt (some string) None & info [ "burst" ] ~docv:"ON,OFF,X" ~doc)
  in
  let queue =
    Arg.(value & opt int 256 & info [ "queue" ] ~doc:"Request queue bound (drop-newest beyond it).")
  in
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~doc:"Worker mutator threads.")
  in
  let timeout_ms =
    Arg.(value & opt float 0.0 & info [ "timeout-ms" ] ~doc:"Queueing deadline; 0 disables.")
  in
  let slo_ms =
    Arg.(value & opt float 0.0 & info [ "slo-ms" ] ~doc:"End-to-end latency SLO; 0 disables.")
  in
  let slo_target =
    Arg.(value & opt float 0.999 & info [ "slo-target" ] ~doc:"Required SLO attainment fraction.")
  in
  let throttle =
    let doc =
      "Admission-throttle hysteresis as $(b,HI,LO) queue depths: shed at \
       the door above HI until the backlog drains to LO."
    in
    Arg.(value & opt (some string) None & info [ "throttle" ] ~docv:"HI,LO" ~doc)
  in
  let collector =
    Arg.(value & opt string "cgc" & info [ "gc"; "collector"; "c" ] ~doc:gc_doc)
  in
  let heap_mb =
    Arg.(value & opt float 24.0 & info [ "heap-mb" ] ~doc:"Simulated heap size (MB).")
  in
  let ncpus = Arg.(value & opt int 4 & info [ "ncpus" ] ~doc:"Simulated CPUs.") in
  let ms =
    Arg.(value & opt float 2000.0 & info [ "ms" ] ~doc:"Simulated milliseconds measured.")
  in
  let warmup_ms =
    Arg.(value & opt float 0.0 & info [ "warmup-ms" ] ~doc:"Warm-up window discarded before measuring.")
  in
  let tracing_rate =
    Arg.(value & opt float 8.0 & info [ "tracing-rate"; "k0" ] ~doc:"Tracing rate K0.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"SCENARIOS" ~doc:inject_doc)
  in
  let fault_seed =
    let doc = "Seed for the fault injector (default: the run seed)." in
    Arg.(value & opt (some int) None & info [ "fault-seed" ] ~doc)
  in
  let verify =
    let doc = "Run the heap invariant verifier at every GC cycle boundary." in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let trace_out =
    let doc = "Write a Chrome trace-event JSON file (arms the event sink)." in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let trace_ring =
    Arg.(
      value
      & opt int (1 lsl 17)
      & info [ "trace-ring" ] ~doc:"Per-thread event-ring capacity.")
  in
  let metrics_out =
    let doc = "Write per-GC-cycle metrics to $(docv) as CSV." in
    Arg.(
      value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let json_out =
    let doc =
      Printf.sprintf "Write the $(b,%s) SLO report to $(docv)."
        Server_report.schema
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let exec rate arrival burst queue workers timeout_ms slo_ms slo_target
      throttle collector heap_mb ncpus ms warmup_ms tracing_rate seed inject
      fault_seed verify trace_out trace_ring metrics_out json_out =
    let parse_floats what spec n =
      let parts = String.split_on_char ',' spec in
      match
        if List.length parts <> n then None
        else
          try Some (List.map (fun s -> float_of_string (String.trim s)) parts)
          with Failure _ -> None
      with
      | Some fs -> fs
      | None ->
          Printf.eprintf "cgcsim: bad %s %S (expected %d comma-separated numbers)\n"
            what spec n;
          exit Exit_codes.usage
    in
    let arrival_kind =
      match (burst, arrival) with
      | Some spec, _ -> (
          match parse_floats "--burst" spec 3 with
          | [ on_ms; off_ms; factor ] -> Arrival.Bursty { on_ms; off_ms; factor }
          | _ -> assert false)
      | None, "poisson" -> Arrival.Poisson
      | None, "constant" -> Arrival.Constant
      | None, "bursty" ->
          Arrival.Bursty { on_ms = 20.0; off_ms = 80.0; factor = 4.0 }
      | None, a ->
          Printf.eprintf "cgcsim: unknown arrival process %S (poisson|constant|bursty)\n" a;
          exit Exit_codes.usage
    in
    let throttle_hi, throttle_lo =
      match throttle with
      | None -> (0, 0)
      | Some spec -> (
          match parse_floats "--throttle" spec 2 with
          | [ hi; lo ] -> (int_of_float hi, int_of_float lo)
          | _ -> assert false)
    in
    let faults =
      match inject with
      | None -> Fault.disabled
      | Some spec -> (
          match parse_scenarios spec with
          | Ok scenarios ->
              let seed = match fault_seed with Some s -> s | None -> seed in
              Fault.create ~scenarios ~seed ()
          | Error msg ->
              Printf.eprintf "cgcsim: %s\n" msg;
              exit Exit_codes.usage)
    in
    let gc =
      { (gc_base collector) with Config.k0 = tracing_rate; faults; verify }
    in
    let trace = trace_out <> None in
    let scfg =
      try
        Server.cfg ~arrival:arrival_kind ~queue_cap:queue ~workers ~timeout_ms
          ~slo_ms ~slo_target ~throttle_hi ~throttle_lo ~rate_per_s:rate ()
      with Invalid_argument msg ->
        Printf.eprintf "cgcsim: %s\n" msg;
        exit Exit_codes.usage
    in
    let vm =
      Vm.create
        (Vm.config ~heap_mb ~ncpus ~seed ~gc ~trace ~trace_ring ())
    in
    let srv = Server.create scfg vm in
    catching_failures (fun () ->
        if warmup_ms > 0.0 then Vm.run_measured vm ~warmup_ms ~ms
        else Vm.run vm ~ms);
    let tot = Server.totals srv in
    print_string (Server_report.text scfg ~ran_ms:ms tot);
    (match trace_out with
    | Some file ->
        write_or_die "trace" (Vm.write_trace vm) file;
        Printf.printf "trace written to %s\n" file
    | None -> ());
    (match metrics_out with
    | Some file ->
        write_or_die "metrics" (Vm.write_metrics vm) file;
        Printf.printf "per-cycle metrics written to %s\n" file
    | None -> ());
    (match json_out with
    | Some file ->
        write_or_die "server report"
          (fun f ->
            Export.write_file f
              (Json.to_string ~pretty:true
                 (Server_report.to_json scfg ~ran_ms:ms tot)))
          file;
        Printf.printf "server report written to %s\n" file
    | None -> ());
    if Server.slo_breached srv then begin
      Printf.eprintf
        "cgcsim: SLO breach — %.1f ms attainment %.4f below target %.4f\n"
        slo_ms
        (Server.slo_attainment tot)
        slo_target;
      exit Exit_codes.slo
    end
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Run the deterministic open-loop request/latency simulation and \
         print its SLO report."
  in
  Cmd.v info
    Term.(
      const exec $ rate $ arrival $ burst $ queue $ workers $ timeout_ms
      $ slo_ms $ slo_target $ throttle $ collector $ heap_mb $ ncpus $ ms
      $ warmup_ms $ tracing_rate $ seed $ inject $ fault_seed $ verify
      $ trace_out $ trace_ring $ metrics_out $ json_out)

(* ------------------------------------------------------------------ *)
(* cgcsim cluster — N shard VMs behind a front-end load balancer.

   The balancer draws the fleet arrival stream once, routes every
   arrival (round-robin, least-queue-depth or consistent-hash) through
   the epoch router, and each shard incarnation — a complete VM +
   collector + server — replays its slice on the persistent domain pool
   (--jobs).  Prints the fleet SLO report and optionally writes it as
   cgcsim-cluster-v3 JSON, plus the merged fleet timeline
   (--timeline-out) as Chrome counter tracks.

     cgcsim cluster --shards 8 --policy lqd --rate 24000 --slo-ms 50 \
       --ms 3000 --jobs 8 --chaos shard-restart --json fleet.json

   Exit code 6: an SLO was configured and *fleet* attainment fell below
   --slo-target.  Exit code 7: the fleet degradation ladder bottomed
   out (--give-up unroutable requests under --chaos).  Per-shard traces
   (--trace-out PREFIX) are written as PREFIX.shard<K>.json, restarted
   incarnations as PREFIX.shard<K>.r<I>.json, each independently
   loadable in Perfetto. *)

module Balancer = Cgc_cluster.Balancer
module Cluster = Cgc_cluster.Cluster
module Cluster_report = Cgc_cluster.Report
module Dpool = Cgc_cluster.Dpool

let cluster_cmd =
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Shard VM count.")
  in
  let policy =
    let doc =
      "Routing policy: round-robin (rr), least-queue (lqd) or \
       consistent-hash (hash)."
    in
    Arg.(value & opt string "round-robin" & info [ "policy" ] ~doc)
  in
  let rate =
    Arg.(value & opt float 16000.0 & info [ "rate" ] ~doc:"Fleet offered load, requests per simulated second.")
  in
  let arrival =
    let doc = "Arrival process: poisson, constant or bursty." in
    Arg.(value & opt string "poisson" & info [ "arrival" ] ~doc)
  in
  let burst =
    let doc =
      "Bursty on/off windows as $(b,ON_MS,OFF_MS,FACTOR) (implies \
       $(b,--arrival bursty))."
    in
    Arg.(value & opt (some string) None & info [ "burst" ] ~docv:"ON,OFF,X" ~doc)
  in
  let queue =
    Arg.(value & opt int 256 & info [ "queue" ] ~doc:"Per-shard request queue bound.")
  in
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~doc:"Worker mutator threads per shard.")
  in
  let timeout_ms =
    Arg.(value & opt float 0.0 & info [ "timeout-ms" ] ~doc:"Queueing deadline; 0 disables.")
  in
  let slo_ms =
    Arg.(value & opt float 0.0 & info [ "slo-ms" ] ~doc:"End-to-end latency SLO; 0 disables.")
  in
  let slo_target =
    Arg.(value & opt float 0.999 & info [ "slo-target" ] ~doc:"Required fleet SLO attainment fraction.")
  in
  let throttle =
    let doc = "Per-shard admission-throttle hysteresis as $(b,HI,LO) queue depths." in
    Arg.(value & opt (some string) None & info [ "throttle" ] ~docv:"HI,LO" ~doc)
  in
  let service_est_ms =
    let doc =
      "The balancer's mean-service-time estimate (ms), parameterising \
       the least-queue fluid model."
    in
    Arg.(value & opt float 0.12 & info [ "service-est-ms" ] ~doc)
  in
  let bin_ms =
    Arg.(value & opt float 10.0 & info [ "bin-ms" ] ~doc:"Fleet-phenomena timeline bin width (ms).")
  in
  let collector =
    Arg.(value & opt string "cgc" & info [ "gc"; "collector"; "c" ] ~doc:gc_doc)
  in
  let heap_mb =
    Arg.(value & opt float 24.0 & info [ "heap-mb" ] ~doc:"Per-shard simulated heap size (MB).")
  in
  let ncpus = Arg.(value & opt int 4 & info [ "ncpus" ] ~doc:"Per-shard simulated CPUs.") in
  let ms =
    Arg.(value & opt float 2000.0 & info [ "ms" ] ~doc:"Simulated milliseconds to run.")
  in
  let tracing_rate =
    Arg.(value & opt float 8.0 & info [ "tracing-rate"; "k0" ] ~doc:"Tracing rate K0.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fleet PRNG seed (shard seeds derive from it).") in
  let jobs =
    let doc =
      "Run shards on $(docv) OCaml domains.  Host-side parallelism \
       only: per-shard traces and the fleet report are byte-identical \
       at every job count."
    in
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"SCENARIOS" ~doc:inject_doc)
  in
  let fault_seed =
    let doc = "Seed for the fault injectors (default: the fleet seed)." in
    Arg.(value & opt (some int) None & info [ "fault-seed" ] ~doc)
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SCENARIO" ~doc:chaos_doc)
  in
  let chaos_seed =
    let doc = "Seed for the chaos plan (default: the fleet seed)." in
    Arg.(value & opt (some int) None & info [ "chaos-seed" ] ~doc)
  in
  let epoch_ms =
    let doc =
      "Balancer liveness re-read interval in ms (default: one \
       $(b,--bin-ms) timeline bin)."
    in
    Arg.(value & opt (some float) None & info [ "epoch-ms" ] ~doc)
  in
  let retries =
    Arg.(
      value & opt int 3
      & info [ "retries" ] ~doc:"Per-request retry budget when a target shard is dark.")
  in
  let retry_base_ms =
    Arg.(
      value & opt float 0.25
      & info [ "retry-base-ms" ]
          ~doc:"First retry backoff in ms; doubles per attempt.")
  in
  let hedge =
    let doc =
      "Hedge to a shard whose modelled queue depth undercuts the \
       primary's by at least $(docv) requests; 0 disables."
    in
    Arg.(value & opt float 0.0 & info [ "hedge" ] ~docv:"MARGIN" ~doc)
  in
  let fleet_throttle =
    let doc =
      "Arm the fleet-wide admission throttle at or below this \
       balancer-visible live fraction."
    in
    Arg.(value & opt float 0.5 & info [ "fleet-throttle" ] ~docv:"FRAC" ~doc)
  in
  let give_up =
    let doc =
      "Unroutable requests tolerated before the typed \
       $(b,Fleet_unavailable) failure (exit code 7)."
    in
    Arg.(value & opt int 100 & info [ "give-up" ] ~docv:"N" ~doc)
  in
  let verify =
    let doc = "Run the heap invariant verifier in every shard at every GC cycle boundary." in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let trace_out =
    let doc =
      "Write one Chrome trace-event JSON file per shard, named \
       $(docv).shard<K>.json (arms every shard's event sink)."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"PREFIX" ~doc)
  in
  let trace_ring =
    Arg.(
      value
      & opt int (1 lsl 17)
      & info [ "trace-ring" ] ~doc:"Per-thread event-ring capacity.")
  in
  let json_out =
    let doc = "Write the $(b,cgcsim-cluster-v3) fleet report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let timeline_out =
    let doc =
      "Write the merged fleet timeline (per-epoch liveness, per-bin \
       placement accounting and availability, per-shard stopped time / \
       queue depth / sheds) as $(b,cgcsim-timeline-v1) Chrome counter \
       tracks to $(docv)."
    in
    Arg.(
      value & opt (some string) None & info [ "timeline-out" ] ~docv:"FILE" ~doc)
  in
  let exec shards policy rate arrival burst queue workers timeout_ms slo_ms
      slo_target throttle service_est_ms bin_ms collector heap_mb ncpus ms
      tracing_rate seed jobs inject fault_seed chaos chaos_seed epoch_ms
      retries retry_base_ms hedge fleet_throttle give_up verify trace_out
      trace_ring json_out timeline_out =
    let parse_floats what spec n =
      let parts = String.split_on_char ',' spec in
      match
        if List.length parts <> n then None
        else
          try Some (List.map (fun s -> float_of_string (String.trim s)) parts)
          with Failure _ -> None
      with
      | Some fs -> fs
      | None ->
          Printf.eprintf
            "cgcsim: bad %s %S (expected %d comma-separated numbers)\n" what
            spec n;
          exit Exit_codes.usage
    in
    let policy =
      match Balancer.policy_of_name policy with
      | Some p -> p
      | None ->
          Printf.eprintf
            "cgcsim: unknown policy %S (round-robin|least-queue|consistent-hash)\n"
            policy;
          exit Exit_codes.usage
    in
    let arrival_kind =
      match (burst, arrival) with
      | Some spec, _ -> (
          match parse_floats "--burst" spec 3 with
          | [ on_ms; off_ms; factor ] -> Arrival.Bursty { on_ms; off_ms; factor }
          | _ -> assert false)
      | None, "poisson" -> Arrival.Poisson
      | None, "constant" -> Arrival.Constant
      | None, "bursty" ->
          Arrival.Bursty { on_ms = 20.0; off_ms = 80.0; factor = 4.0 }
      | None, a ->
          Printf.eprintf
            "cgcsim: unknown arrival process %S (poisson|constant|bursty)\n" a;
          exit Exit_codes.usage
    in
    let throttle_hi, throttle_lo =
      match throttle with
      | None -> (0, 0)
      | Some spec -> (
          match parse_floats "--throttle" spec 2 with
          | [ hi; lo ] -> (int_of_float hi, int_of_float lo)
          | _ -> assert false)
    in
    if jobs < 1 then begin
      Printf.eprintf "--jobs expects a positive integer, got %d\n" jobs;
      exit Exit_codes.usage
    end;
    Dpool.set_size jobs;
    let faults =
      match inject with
      | None -> Fault.disabled
      | Some spec -> (
          match parse_scenarios spec with
          | Ok scenarios ->
              let seed = match fault_seed with Some s -> s | None -> seed in
              Fault.create ~scenarios ~seed ()
          | Error msg ->
              Printf.eprintf "cgcsim: %s\n" msg;
              exit Exit_codes.usage)
    in
    let gc =
      { (gc_base collector) with Config.k0 = tracing_rate; faults; verify }
    in
    let chaos =
      match chaos with
      | None -> None
      | Some name -> (
          match Cluster_fault.of_name (String.trim name) with
          | Some sc -> Some sc
          | None ->
              Printf.eprintf
                "cgcsim: unknown chaos scenario %S (known: %s)\n" name
                (String.concat ", "
                   (List.map Cluster_fault.to_name Cluster_fault.all));
              exit Exit_codes.usage)
    in
    let chaos_seed = match chaos_seed with Some s -> s | None -> seed in
    let ccfg =
      try
        Cluster.cfg ~shards ~policy ~arrival:arrival_kind ~queue_cap:queue
          ~workers ~timeout_ms ~slo_ms ~slo_target ~throttle_hi ~throttle_lo
          ~service_est_ms ~bin_ms ~gc ~heap_mb ~ncpus ~seed ~ms
          ~trace:(trace_out <> None) ~trace_ring ?chaos ~chaos_seed ?epoch_ms
          ~retries ~retry_base_ms ~hedge_margin:hedge
          ~fleet_throttle_frac:fleet_throttle ~give_up ~rate_per_s:rate ()
      with Invalid_argument msg ->
        Printf.eprintf "cgcsim: %s\n" msg;
        exit Exit_codes.usage
    in
    let result = catching_failures (fun () -> Cluster.run ccfg) in
    print_string (Cluster_report.text result);
    (match trace_out with
    | Some prefix ->
        Array.iter
          (fun (s : Cgc_cluster.Shard.result) ->
            match s.Cgc_cluster.Shard.trace with
            | Some trace ->
                (* Incarnation 0 keeps the historical name, so chaos-free
                   campaigns produce the same files as before. *)
                let file =
                  if s.Cgc_cluster.Shard.incarnation = 0 then
                    Printf.sprintf "%s.shard%d.json" prefix
                      s.Cgc_cluster.Shard.id
                  else
                    Printf.sprintf "%s.shard%d.r%d.json" prefix
                      s.Cgc_cluster.Shard.id s.Cgc_cluster.Shard.incarnation
                in
                write_or_die "trace"
                  (fun f -> Export.write_file f trace)
                  file;
                Printf.printf "shard %d trace written to %s\n"
                  s.Cgc_cluster.Shard.id file
            | None -> ())
          result.Cluster.shards
    | None -> ());
    (match json_out with
    | Some file ->
        write_or_die "cluster report"
          (fun f ->
            Export.write_file f
              (Json.to_string ~pretty:true (Cluster_report.to_json result)))
          file;
        Printf.printf "cluster report written to %s\n" file
    | None -> ());
    (match timeline_out with
    | Some file ->
        write_or_die "fleet timeline"
          (fun f ->
            Export.write_file f (Cgc_cluster.Timeline.chrome_json result))
          file;
        Printf.printf "fleet timeline written to %s\n" file
    | None -> ());
    if Cluster.slo_breached result then begin
      Printf.eprintf
        "cgcsim: fleet SLO breach — %.1f ms attainment %.4f below target %.4f\n"
        slo_ms
        (Cluster.slo_attainment result)
        slo_target;
      exit Exit_codes.slo
    end
  in
  let info =
    Cmd.info "cluster"
      ~doc:
        "Run N shard VMs behind a front-end load balancer on the \
         persistent domain pool and print the fleet SLO report."
  in
  Cmd.v info
    Term.(
      const exec $ shards $ policy $ rate $ arrival $ burst $ queue $ workers
      $ timeout_ms $ slo_ms $ slo_target $ throttle $ service_est_ms $ bin_ms
      $ collector $ heap_mb $ ncpus $ ms $ tracing_rate $ seed $ jobs $ inject
      $ fault_seed $ chaos $ chaos_seed $ epoch_ms $ retries $ retry_base_ms
      $ hedge $ fleet_throttle $ give_up $ verify $ trace_out $ trace_ring
      $ json_out $ timeline_out)

let exit_codes_cmd =
  let markdown =
    let doc =
      "Print the GitHub-flavoured markdown table — the literal source of \
       the README's exit-code block."
    in
    Arg.(value & flag & info [ "markdown" ] ~doc)
  in
  let exec markdown =
    print_string
      (if markdown then Exit_codes.markdown_table () else Exit_codes.text ())
  in
  let info =
    Cmd.info "exit-codes"
      ~doc:
        "Print the process exit-code table (the single source of truth the \
         README and the binary both use)."
  in
  Cmd.v info Term.(const exec $ markdown)

let experiment_cmd =
  let which =
    let doc =
      "Experiment: fig1, fig2, table1, table2, table3, table4, javac, \
       packetmem, serverlat, genlat, clusterlat, clusterchaos."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  let metrics_out =
    let doc =
      "Write every per-run metrics record the experiment measured to $(docv) \
       as CSV."
    in
    Arg.(
      value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let jobs =
    let doc =
      "Run the experiment's independent simulations on $(docv) OCaml \
       domains.  Host-side parallelism only: results (tables, metrics CSV) \
       are identical at every job count."
    in
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let exec which metrics_out jobs =
    let module E = Cgc_experiments in
    if jobs < 1 then begin
      Printf.eprintf "--jobs expects a positive integer, got %d\n" jobs;
      exit Exit_codes.usage
    end;
    E.Common.set_jobs jobs;
    E.Common.reset_recorded ();
    (match which with
    | "fig1" -> ignore (E.Fig1_specjbb.run ())
    | "fig2" -> ignore (E.Fig2_pbob.run ())
    | "table1" | "table2" | "table3" -> ignore (E.Tables123.run ())
    | "table4" -> ignore (E.Table4_load_balance.run ())
    | "javac" -> ignore (E.Javac_exp.run ())
    | "packetmem" -> ignore (E.Packet_memory.run ())
    | "serverlat" -> ignore (E.Server_latency.run ())
    | "genlat" -> ignore (E.Genlat.run ())
    | "clusterlat" -> ignore (E.Clusterlat.run ())
    | "clusterchaos" -> ignore (E.Clusterchaos.run ())
    | n ->
        Printf.eprintf "unknown experiment %s\n" n;
        exit Exit_codes.usage);
    match metrics_out with
    | Some file ->
        write_or_die "metrics" E.Common.write_metrics_csv file;
        Printf.printf "metrics written to %s (%d runs)\n" file
          (List.length (E.Common.recorded ()))
    | None -> ()
  in
  let info = Cmd.info "experiment" ~doc:"Run a paper-reproduction experiment." in
  Cmd.v info Term.(const exec $ which $ metrics_out $ jobs)

let () =
  let info =
    Cmd.info "cgcsim"
      ~doc:
        "Simulator of the PLDI 2002 parallel, incremental and mostly \
         concurrent garbage collector."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            serve_cmd;
            cluster_cmd;
            analyze_cmd;
            experiment_cmd;
            exit_codes_cmd;
          ]))
