(* cgcsim — command-line driver for the collector simulator.

   Run a workload under either collector with custom parameters and print
   the VM report:

     dune exec bin/cgcsim.exe -- run --workload specjbb --collector cgc \
       --warehouses 8 --heap-mb 64 --ms 4000 --tracing-rate 8

   Or run one of the paper-reproduction experiments or ablations, or all
   of them ([experiment_cmd] holds the one table of them):

     dune exec bin/cgcsim.exe -- experiment fig1 --fast

   Every flag group is declared once, as a cmdliner term, and each
   sub-command composes the terms it takes; per-command differences
   (defaults, whether a flag exists) are arguments to the shared term.
   The terms bench/main.ml also takes live in [Cgc_cli.Flags].  Malformed
   values are rejected by the converters, so every command-line error
   exits 1 through [Cgc_cli.Flags.eval]. *)

open Cmdliner
open Term.Syntax
open Cgc_cli.Flags

module Vm = Cgc_runtime.Vm
module Config = Cgc_core.Config
module Collector = Cgc_core.Collector
module Verify = Cgc_core.Verify
module Fault = Cgc_fault.Fault
module Cluster_fault = Cgc_fault.Cluster_fault
module Exit_codes = Cgc_cli.Exit_codes
module Analysis = Cgc_prof.Analysis
module Prof_report = Cgc_prof.Report
module Json = Cgc_prof.Json
module Export = Cgc_obs.Export
module Obs = Cgc_obs.Obs
module Server = Cgc_server.Server
module Server_report = Cgc_server.Report
module Arrival = Cgc_server.Arrival
module Balancer = Cgc_cluster.Balancer
module Cluster = Cgc_cluster.Cluster
module Cluster_report = Cgc_cluster.Report
module Shard = Cgc_cluster.Shard
module Dpool = Cgc_cluster.Dpool
module Tails = Cgc_cluster.Tails

(* ------------------------------------------------------------------ *)
(* Converters                                                          *)

(* A converter over a name table kept by the library that owns the
   names: exactly the spellings [of_name] accepts parse, and defaults
   print through [to_name]. *)
let names_of to_name all = String.concat ", " (List.map to_name all)

let named what of_name to_name all =
  let parse s =
    Option.to_result (of_name s)
      ~none:
        (Printf.sprintf "unknown %s %S (known: %s)" what s
           (names_of to_name all))
  in
  Arg.conv' (parse, fun ppf v -> Format.pp_print_string ppf (to_name v))

(* The --inject argument: a comma-separated list of scenario names, or
   "all". *)
let scenarios =
  let parse s =
    if s = "all" then Ok Fault.all
    else
      List.fold_right
        (fun n acc ->
          match (Fault.of_name (String.trim n), acc) with
          | Some sc, Ok scs -> Ok (sc :: scs)
          | None, _ ->
              Error
                (Printf.sprintf
                   "unknown fault scenario %S (known: %s, or \"all\")" n
                   (names_of Fault.to_name Fault.all))
          | _, (Error _ as e) -> e)
        (String.split_on_char ',' (String.trim s))
        (Ok [])
  in
  let print ppf scs =
    Format.pp_print_string ppf (names_of Fault.to_name scs)
  in
  Arg.conv' (parse, print)

(* One comma-separated number; blanks around it are allowed. *)
let number =
  let parse s =
    Option.to_result
      (float_of_string_opt (String.trim s))
      ~none:(Printf.sprintf "%S is not a number" s)
  in
  Arg.conv' (parse, Format.pp_print_float)

(* The --help scenario listings are generated from the injector modules
   themselves, so a scenario added there shows up in the docs without a
   second edit here. *)
let scenario_doc to_name describe all =
  String.concat "; "
    (List.map
       (fun sc -> Printf.sprintf "$(b,%s) (%s)" (to_name sc) (describe sc))
       all)

(* ------------------------------------------------------------------ *)
(* Outputs and failures                                                *)

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
  | Cluster.Fleet_unavailable d ->
      Printf.eprintf "cgcsim: %s\n" (Cluster.unavailable_to_string d);
      exit Exit_codes.fleet

(* Write an optional output file and say so on stdout.  An unwritable
   path is a clean usage error instead of an uncaught Sys_error. *)
let output what write = function
  | None -> ()
  | Some file ->
      (try write file
       with Sys_error msg ->
         Printf.eprintf "cgcsim: cannot write %s: %s\n" what msg;
         exit Exit_codes.usage);
      Printf.printf "%s written to %s\n" what file

let output_json what json =
  output what (fun f ->
      Export.write_file f (Json.to_string ~pretty:true (json ())))

let metrics_out ?(doc = "Write per-GC-cycle metrics to $(docv) as CSV.") () =
  file_arg "metrics-out" doc

(* ------------------------------------------------------------------ *)
(* The simulated VM: heap, CPUs, run length, seed and the collector    *)

type vm = {
  gc : Config.t;
  heap_mb : float;
  ncpus : int;
  ms : float;
  seed : int;
  trace_ring : int;
}

(* [run]'s per-knob collector flags, applied over the --gc base. *)
let knobs =
  let d = Config.default in
  let+ n_background =
    opt_arg Arg.int d.n_background [ "background" ] "Background GC threads."
  and+ n_packets =
    opt_arg Arg.int d.n_packets [ "packets" ] "Work packets in the pool."
  and+ lazy_sweep =
    flag_arg [ "lazy-sweep" ] "Sweep outside the pause (section 7)."
  and+ compaction =
    flag_arg [ "compaction" ] "Evacuate one heap area per cycle (section 2.3)."
  and+ card_passes =
    opt_arg Arg.int d.card_passes [ "card-passes" ]
      "Concurrent card-cleaning passes."
  in
  fun gc ->
    let open Config in
    { gc with n_background; n_packets; lazy_sweep; compaction; card_passes }

(* The VM flags.  [collector] adds --gc, the fault injector and the
   verifier (without it the collector is the default CGC at the given
   K0) and [tuning] adds [run]'s collector knobs.  [lossless] makes
   --trace-ring default to rings that never wrap, so the trace keeps
   every event at the memory cost of the events kept.  The resulting
   collector config goes through [Config.validate], so an illegal
   combination is a usage error. *)
let vm_term ?(collector = true) ?(tuning = false) ?(lossless = false) ~heap_mb
    ~ms () =
  let only on default term = if on then term else Term.const default in
  Term.term_result'
  @@ let+ mode =
       only collector Config.Cgc
         (opt_arg
            (named "collector" Config.mode_of_name Config.mode_name
               Config.all_modes)
            Config.Cgc [ "gc"; "collector"; "c" ]
            "Collector: cgc (mostly-concurrent), gen (nursery + minor \
             collections over cgc) or stw (baseline).")
     and+ inject =
       only collector None
         (opt_arg ~docv:"SCENARIOS" Arg.(some scenarios) None [ "inject" ]
            ("Arm the deterministic fault injector with a comma-separated \
              list of scenarios, or $(b,all).  Scenarios: "
            ^ scenario_doc Fault.to_name Fault.describe Fault.all
            ^ "."))
     and+ fault_seed =
       only collector None
         (opt_arg Arg.(some int) None [ "fault-seed" ]
            "Seed for the fault injector (default: the run seed).")
     and+ verify =
       only collector false
         (flag_arg [ "verify" ]
            "Run the heap invariant verifier at every GC cycle boundary; exit \
             nonzero on the first violation.")
     and+ tune = only tuning Fun.id knobs
     and+ k0 = opt_arg Arg.float 8.0 [ "tracing-rate"; "k0" ] "Tracing rate K0."
     and+ heap_mb =
       opt_arg Arg.float heap_mb [ "heap-mb" ] "Simulated heap size (MB)."
     and+ ncpus = opt_arg Arg.int 4 [ "ncpus" ] "Simulated CPUs."
     and+ ms = opt_arg Arg.float ms [ "ms" ] "Simulated milliseconds to run."
     and+ seed = opt_arg Arg.int 1 [ "seed" ] "PRNG seed."
     and+ trace_ring =
       if lossless then
         Arg.(
           value
           & opt positive_int max_int
           & info [ "trace-ring" ] ~absent:"unbounded"
               ~doc:
                 "Per-thread event-ring capacity.  By default the rings \
                  never wrap and the trace keeps every event.")
       else
         opt_arg positive_int (1 lsl 17) [ "trace-ring" ]
           "Per-thread event-ring capacity."
     in
     let base =
       match mode with
       | Config.Cgc -> Config.default
       | Config.Stw -> Config.stw
       | Config.Gen -> Config.gen
     in
     let faults =
       match inject with
       | None -> Fault.disabled
       | Some scenarios ->
           let seed = Option.value fault_seed ~default:seed in
           Fault.create ~scenarios ~seed ()
     in
     let gc = tune { base with Config.k0; faults; verify } in
     Result.map
       (fun () -> { gc; heap_mb; ncpus; ms; seed; trace_ring })
       (Config.validate gc)

(* ------------------------------------------------------------------ *)
(* Closed-loop workloads (run, analyze --workload)                     *)

type workload = Specjbb | Pbob | Javac

let workloads = [ ("specjbb", Specjbb); ("pbob", Pbob); ("javac", Javac) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

let workload_arg c default doc = opt_arg c default [ "workload"; "w" ] doc
let warehouses = opt_arg Arg.int 8 [ "warehouses" ] "Warehouse count."

let run_workload w ~warehouses ~trace
    { gc; heap_mb; ncpus; ms; seed; trace_ring } =
  catching_failures (fun () ->
      let vm =
        match w with
        | Specjbb ->
            Cgc_workloads.Specjbb.setup ~warehouses ~gc ~heap_mb ~ncpus ~seed
              ~trace ~trace_ring ()
        | Pbob ->
            Cgc_workloads.Pbob.setup ~warehouses ~gc ~heap_mb ~ncpus ~seed
              ~trace ~trace_ring ()
        | Javac ->
            Cgc_workloads.Javac.setup ~gc ~heap_mb ~ncpus ~seed ~trace
              ~trace_ring ()
      in
      Vm.run vm ~ms;
      vm)

let run_cmd =
  let term =
    let+ w =
      workload_arg (Arg.enum workloads) Specjbb
        "Workload: specjbb, pbob or javac."
    and+ warehouses
    and+ vm =
      vm_term ~tuning:true ~lossless:true ~heap_mb:64.0 ~ms:4000.0 ()
    and+ trace_out = trace_out ()
    and+ metrics_out = metrics_out () in
    let vm = run_workload w ~warehouses ~trace:(trace_out <> None) vm in
    Vm.print_report vm;
    output "trace" (Vm.write_trace vm) trace_out;
    output "per-cycle metrics" (Vm.write_metrics vm) metrics_out
  in
  cmd "run" ~doc:"Run a workload under the simulated collector." term

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

   When --trace names no file, it is treated as a cluster --trace-out
   prefix and every PREFIX.shard<K>.json / PREFIX.shard<K>.r<I>.json
   trace is analyzed in turn (--fail-on-drops then covers all of them).

   Exit codes: 4 = unreadable/incompatible input (schema mismatch or a
   broken blame-conservation identity), 5 = the input lost events to
   ring overflow and --fail-on-drops was given. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* An analyzer input that cannot be read or parsed exits 4. *)
let schema_error msg =
  Printf.eprintf "cgcsim: %s\n" msg;
  exit Exit_codes.schema

let read_input file =
  try read_file file
  with Sys_error msg ->
    schema_error (Printf.sprintf "cannot read %s: %s" file msg)

let parsed file = function
  | Ok v -> v
  | Error msg -> schema_error (file ^ ": " ^ msg)

let known_csv_schemas =
  [ Vm.cycles_schema; Cgc_experiments.Common.runs_schema ]

(* Expand a cluster --trace-out prefix into its per-incarnation trace
   files, sorted so the order is deterministic. *)
let expand_trace_prefix prefix =
  let dir = Filename.dirname prefix in
  let base = Filename.basename prefix ^ ".shard" in
  let names = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.to_list names
  |> List.filter (fun n ->
         String.length n > String.length base
         && String.starts_with ~prefix:base n
         && Filename.check_suffix n ".json")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let validate_csv file contents =
  let schema, header, rows = parsed file (Export.parse_csv contents) in
  let known = String.concat ", " known_csv_schemas in
  (match schema with
  | None ->
      schema_error
        (Printf.sprintf
           "%s: no #schema= line (pre-v1 file?); known schemas: %s" file known)
  | Some s when not (List.mem s known_csv_schemas) ->
      schema_error
        (Printf.sprintf "%s: unsupported schema %S; known schemas: %s" file s
           known)
  | Some s ->
      Printf.printf "%s: schema %s, %d columns, %d rows\n" file s
        (List.length header) (List.length rows));
  List.iter
    (fun r ->
      if List.length r <> List.length header then
        schema_error
          (Printf.sprintf "%s: row width %d does not match header width %d"
             file (List.length r) (List.length header)))
    rows

let analyze_cmd =
  let term =
    let+ trace_in =
      file_arg "trace"
        "Analyze a Chrome trace-event JSON file written by $(b,run \
         --trace-out) or $(b,serve --trace-out).  If $(docv) is not a file \
         it is treated as a $(b,cluster --trace-out) prefix and every \
         $(docv).shard<K>.json trace is analyzed."
    and+ report_in =
      file_arg "report"
        "Tail forensics on a serialised report ($(b,serve --json) or \
         $(b,cluster --json), any supported schema version): re-check the \
         blame conservation identity, then print the fleet blame \
         decomposition and the worst-request causal chains."
    and+ metrics_in =
      file_arg "metrics"
        "Validate a metrics CSV file ($(b,run --metrics-out) or \
         $(b,experiment --metrics-out)) against its $(b,#schema=) line and \
         summarise it."
    and+ tails_n =
      opt_arg ~docv:"N" Arg.int 16 [ "tails" ]
        "How many worst-request causal chains to show (with --report)."
    and+ lbo =
      flag_arg [ "lbo" ]
        "With $(b,--report), print the LBO-distilled GC cost instead: the \
         report's fractional latency distance above its service-only \
         lower-bound baseline."
    and+ workload =
      workload_arg
        Arg.(some (enum workloads))
        None
        "Run this workload with tracing armed and analyze it live \
         (specjbb|pbob|javac)."
    and+ warehouses
    and+ vm = vm_term ~collector:false ~heap_mb:64.0 ~ms:1000.0 ()
    and+ mmu_windows_ms =
      opt_arg ~docv:"MS,MS,..."
        Arg.(some (list number))
        None [ "mmu-windows" ]
        "Comma-separated MMU window sizes in ms (default 1,5,20,50)."
    and+ json_out =
      file_arg "json"
        (Printf.sprintf "Also write the analysis as $(b,%s) JSON to $(docv)."
           Prof_report.analysis_schema)
    and+ fail_on_drops =
      flag_arg [ "fail-on-drops" ]
        "Exit 5 if the analyzed trace lost any events to ring overflow — \
         derived metrics from a truncated trace are not trustworthy."
    in
    let drops_gate dropped where =
      if fail_on_drops && dropped > 0 then begin
        Printf.eprintf
          "cgcsim: %d events dropped by ring overflow%s (--fail-on-drops)\n"
          dropped where;
        exit Exit_codes.drops
      end
    in
    let finish ~label ~emitted ~dropped events cycles_per_us =
      let a = Analysis.analyse_events ?mmu_windows_ms ~cycles_per_us events in
      print_string (Prof_report.summary ~dropped a);
      output_json "analysis"
        (fun () -> Prof_report.to_json ~label ~emitted ~dropped a)
        json_out;
      drops_gate dropped ""
    in
    let analyze_trace_file file =
      let meta, events =
        parsed file (Export.parse_chrome_json (read_input file))
      in
      finish ~label:file ~emitted:meta.Export.emitted
        ~dropped:meta.Export.dropped (Array.of_list events)
        meta.Export.cycles_per_us
    in
    match (trace_in, report_in, metrics_in, workload) with
    | Some file, None, None, None -> (
        if Sys.file_exists file then analyze_trace_file file
        else
          match expand_trace_prefix file with
          | [] ->
              schema_error
                (Printf.sprintf
                   "cannot read %s: no such file and no %s.shard*.json traces"
                   file file)
          | [ shard_trace ] -> analyze_trace_file shard_trace
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
                  analyze_trace_file shard_trace)
                traces)
    | None, Some file, None, None ->
        (* One parse; the report's own reader re-checks the blame
           conservation identity on every span and block. *)
        let t = parsed file (Tails.of_report (read_input file)) in
        if lbo then begin
          let row = Tails.lbo_of_report t in
          print_string (Tails.lbo_text [ row ]);
          output_json "LBO distillation"
            (fun () -> Tails.lbo_json [ row ])
            json_out
        end
        else begin
          print_string (Tails.text ~n:tails_n t);
          output_json "tail forensics"
            (fun () -> Tails.to_json ~n:tails_n t)
            json_out
        end;
        drops_gate t.Tails.dropped " across the report's shards"
    | None, None, Some file, None -> validate_csv file (read_input file)
    | None, None, None, Some w ->
        let vm = run_workload w ~warehouses ~trace:true vm in
        let o = Vm.obs vm in
        finish ~label:(workload_name w) ~emitted:(Obs.emitted o)
          ~dropped:(Obs.dropped o) (Obs.events_array o) (Vm.cycles_per_us vm)
    | _ ->
        Printf.eprintf
          "cgcsim: analyze needs exactly one of --trace FILE, --report FILE, \
           --metrics FILE or --workload NAME\n";
        exit Exit_codes.usage
  in
  cmd "analyze"
    ~doc:
      "Derive profiling metrics (MMU, load balance, pauses) from a trace \
       file, validate a metrics CSV, or run-and-analyze a workload."
    term

(* ------------------------------------------------------------------ *)
(* Open-loop traffic (serve, cluster)                                  *)

type traffic = {
  rate : float;
  arrival : Arrival.kind;
  queue : int;
  workers : int;
  timeout_ms : float;
  slo_ms : float;
  slo_target : float;
  throttle_hi : int;
  throttle_lo : int;
}

let traffic ~rate =
  let+ rate =
    opt_arg Arg.float rate [ "rate" ]
      "Offered load, requests per simulated second."
  and+ arrival =
    opt_arg
      (Arg.enum
         [
           ("poisson", Arrival.Poisson);
           ("constant", Arrival.Constant);
           ( "bursty",
             Arrival.Bursty { on_ms = 20.0; off_ms = 80.0; factor = 4.0 } );
         ])
      Arrival.Poisson [ "arrival" ]
      "Arrival process: poisson, constant or bursty."
  and+ burst =
    opt_arg ~docv:"ON,OFF,X"
      Arg.(some (t3 number number number))
      None [ "burst" ]
      "Bursty on/off windows as $(b,ON_MS,OFF_MS,FACTOR) (rate is \
       FACTOR$(b,x) during bursts, reduced between them to preserve the \
       average).  Implies $(b,--arrival bursty)."
  and+ queue =
    opt_arg Arg.int 256 [ "queue" ]
      "Request queue bound (drop-newest beyond it)."
  and+ workers = opt_arg Arg.int 4 [ "workers" ] "Worker mutator threads."
  and+ timeout_ms =
    opt_arg Arg.float 0.0 [ "timeout-ms" ] "Queueing deadline; 0 disables."
  and+ slo_ms =
    opt_arg Arg.float 0.0 [ "slo-ms" ] "End-to-end latency SLO; 0 disables."
  and+ slo_target =
    opt_arg Arg.float 0.999 [ "slo-target" ] "Required SLO attainment fraction."
  and+ throttle =
    opt_arg ~docv:"HI,LO"
      Arg.(some (t2 number number))
      None [ "throttle" ]
      "Admission-throttle hysteresis as $(b,HI,LO) queue depths: shed at the \
       door above HI until the backlog drains to LO."
  in
  let arrival =
    match burst with
    | Some (on_ms, off_ms, factor) -> Arrival.Bursty { on_ms; off_ms; factor }
    | None -> arrival
  in
  let throttle_hi, throttle_lo =
    match throttle with
    | None -> (0, 0)
    | Some (hi, lo) -> (int_of_float hi, int_of_float lo)
  in
  {
    rate;
    arrival;
    queue;
    workers;
    timeout_ms;
    slo_ms;
    slo_target;
    throttle_hi;
    throttle_lo;
  }

(* A configuration the server or cluster library rejects is a usage
   error. *)
let checked_cfg f =
  try f ()
  with Invalid_argument msg ->
    Printf.eprintf "cgcsim: %s\n" msg;
    exit Exit_codes.usage

let slo_gate ~breached ~attainment ~what t =
  if breached then begin
    Printf.eprintf "cgcsim: %s — %.1f ms attainment %.4f below target %.4f\n"
      what t.slo_ms attainment t.slo_target;
    exit Exit_codes.slo
  end

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

let serve_cmd =
  let term =
    let+ t = traffic ~rate:4000.0
    and+ { gc; heap_mb; ncpus; ms; seed; trace_ring } =
      vm_term ~heap_mb:24.0 ~ms:2000.0 ()
    and+ warmup_ms =
      opt_arg Arg.float 0.0 [ "warmup-ms" ]
        "Warm-up window discarded before measuring."
    and+ trace_out = trace_out ()
    and+ metrics_out = metrics_out ()
    and+ json_out =
      file_arg "json"
        (Printf.sprintf "Write the $(b,%s) SLO report to $(docv)."
           Server_report.schema)
    in
    let scfg =
      checked_cfg (fun () ->
          Server.cfg ~arrival:t.arrival ~queue_cap:t.queue ~workers:t.workers
            ~timeout_ms:t.timeout_ms ~slo_ms:t.slo_ms ~slo_target:t.slo_target
            ~throttle_hi:t.throttle_hi ~throttle_lo:t.throttle_lo
            ~rate_per_s:t.rate ())
    in
    let trace = trace_out <> None in
    let vm =
      Vm.create (Vm.config ~heap_mb ~ncpus ~seed ~gc ~trace ~trace_ring ())
    in
    let srv = Server.create scfg vm in
    catching_failures (fun () ->
        if warmup_ms > 0.0 then Vm.run_measured vm ~warmup_ms ~ms
        else Vm.run vm ~ms);
    let tot = Server.totals srv in
    print_string (Server_report.text scfg ~ran_ms:ms tot);
    output "trace" (Vm.write_trace vm) trace_out;
    output "per-cycle metrics" (Vm.write_metrics vm) metrics_out;
    output_json "server report"
      (fun () -> Server_report.to_json scfg ~ran_ms:ms tot)
      json_out;
    slo_gate t ~what:"SLO breach" ~breached:(Server.slo_breached srv)
      ~attainment:(Server.slo_attainment tot)
  in
  cmd "serve"
    ~doc:
      "Run the deterministic open-loop request/latency simulation and print \
       its SLO report."
    term

(* ------------------------------------------------------------------ *)
(* cgcsim cluster — N shard VMs behind a front-end load balancer.

   The balancer draws the fleet arrival stream once, routes every
   arrival (round-robin, least-queue-depth or consistent-hash) through
   the epoch router, and each shard incarnation — a complete VM +
   collector + server — replays its slice in a parallel batch on the
   --jobs domains.  Prints the fleet SLO report and optionally writes it as
   Cluster_report.schema JSON, plus the merged fleet timeline
   (--timeline-out) as Chrome counter tracks.

     cgcsim cluster --shards 8 --policy lqd --rate 24000 --slo-ms 50 \
       --ms 3000 --jobs 8 --chaos shard-restart --json fleet.json

   Exit code 6: an SLO was configured and *fleet* attainment fell below
   --slo-target.  Exit code 7: the fleet degradation ladder bottomed
   out (--give-up unroutable requests under --chaos).  Per-shard traces
   (--trace-out PREFIX) are written as PREFIX.shard<K>.json, restarted
   incarnations as PREFIX.shard<K>.r<I>.json, each independently
   loadable in Perfetto. *)

let cluster_cmd =
  let term =
    let+ shards = opt_arg Arg.int 4 [ "shards" ] "Shard VM count."
    and+ policy =
      opt_arg
        (named "policy" Balancer.policy_of_name Balancer.policy_name
           Balancer.all_policies)
        Balancer.Round_robin [ "policy" ]
        "Routing policy: round-robin (rr), least-queue (lqd) or \
         consistent-hash (hash)."
    and+ t = traffic ~rate:16000.0
    and+ service_est_ms =
      opt_arg Arg.float 0.12 [ "service-est-ms" ]
        "The balancer's mean-service-time estimate (ms), parameterising the \
         least-queue fluid model."
    and+ bin_ms =
      opt_arg Arg.float 10.0 [ "bin-ms" ]
        "Fleet-phenomena timeline bin width (ms)."
    and+ { gc; heap_mb; ncpus; ms; seed; trace_ring } =
      vm_term ~heap_mb:24.0 ~ms:2000.0 ()
    and+ jobs =
      jobs
        "Run shards on $(docv) OCaml domains.  Host-side parallelism only: \
         per-shard traces and the fleet report are byte-identical at every \
         job count."
    and+ chaos =
      opt_arg ~docv:"SCENARIO"
        (Arg.some
           (named "chaos scenario"
              (fun s -> Cluster_fault.of_name (String.trim s))
              Cluster_fault.to_name Cluster_fault.all))
        None [ "chaos" ]
        ("Arm one deterministic fleet chaos scenario (seeded by \
          $(b,--chaos-seed)): "
        ^ scenario_doc Cluster_fault.to_name Cluster_fault.describe
            Cluster_fault.all
        ^ ".")
    and+ chaos_seed =
      opt_arg Arg.(some int) None [ "chaos-seed" ]
        "Seed for the chaos plan (default: the fleet seed)."
    and+ epoch_ms =
      opt_arg Arg.(some float) None [ "epoch-ms" ]
        "Balancer liveness re-read interval in ms (default: one \
         $(b,--bin-ms) timeline bin)."
    and+ retries =
      opt_arg Arg.int 3 [ "retries" ]
        "Per-request retry budget when a target shard is dark."
    and+ retry_base_ms =
      opt_arg Arg.float 0.25 [ "retry-base-ms" ]
        "First retry backoff in ms; doubles per attempt."
    and+ hedge_margin =
      opt_arg ~docv:"MARGIN" Arg.float 0.0 [ "hedge" ]
        "Hedge to a shard whose modelled queue depth undercuts the primary's \
         by at least $(docv) requests; 0 disables."
    and+ fleet_throttle_frac =
      opt_arg ~docv:"FRAC" Arg.float 0.5 [ "fleet-throttle" ]
        "Arm the fleet-wide admission throttle at or below this \
         balancer-visible live fraction."
    and+ give_up =
      opt_arg ~docv:"N" Arg.int 100 [ "give-up" ]
        "Unroutable requests tolerated before the typed \
         $(b,Fleet_unavailable) failure (exit code 7)."
    and+ trace_out =
      trace_out ~docv:"PREFIX"
        ~doc:
          "Write one Chrome trace-event JSON file per shard, named \
           $(docv).shard<K>.json (arms every shard's event sink)."
        ()
    and+ json_out =
      file_arg "json"
        (Printf.sprintf "Write the $(b,%s) fleet report to $(docv)."
           Cluster_report.schema)
    and+ timeline_out =
      file_arg "timeline-out"
        (Printf.sprintf
           "Write the merged fleet timeline (per-epoch liveness, per-bin \
            placement accounting and availability, per-shard stopped time / \
            queue depth / sheds) as $(b,%s) Chrome counter tracks to \
            $(docv)."
           Cgc_cluster.Timeline.schema)
    in
    Dpool.set_size jobs;
    let ccfg =
      checked_cfg (fun () ->
          Cluster.cfg ~shards ~policy ~arrival:t.arrival ~queue_cap:t.queue
            ~workers:t.workers ~timeout_ms:t.timeout_ms ~slo_ms:t.slo_ms
            ~slo_target:t.slo_target ~throttle_hi:t.throttle_hi
            ~throttle_lo:t.throttle_lo ~service_est_ms ~bin_ms ~gc ~heap_mb
            ~ncpus ~seed ~ms ~trace:(trace_out <> None) ~trace_ring ?chaos
            ~chaos_seed:(Option.value chaos_seed ~default:seed) ?epoch_ms
            ~retries ~retry_base_ms ~hedge_margin ~fleet_throttle_frac ~give_up
            ~rate_per_s:t.rate ())
    in
    let result = catching_failures (fun () -> Cluster.run ccfg) in
    print_string (Cluster_report.text result);
    Option.iter
      (fun prefix ->
        Array.iter
          (fun (s : Shard.result) ->
            (* Incarnation 0 keeps the historical name, so chaos-free
               campaigns produce the same files as before. *)
            let file =
              if s.Shard.incarnation = 0 then
                Printf.sprintf "%s.shard%d.json" prefix s.Shard.id
              else
                Printf.sprintf "%s.shard%d.r%d.json" prefix s.Shard.id
                  s.Shard.incarnation
            in
            Option.iter
              (fun trace ->
                output
                  (Printf.sprintf "shard %d trace" s.Shard.id)
                  (fun f -> Export.write_file f trace)
                  (Some file))
              s.Shard.trace)
          result.Cluster.shards)
      trace_out;
    output_json "cluster report"
      (fun () -> Cluster_report.to_json result)
      json_out;
    output "fleet timeline"
      (fun f -> Export.write_file f (Cgc_cluster.Timeline.chrome_json result))
      timeline_out;
    slo_gate t ~what:"fleet SLO breach"
      ~breached:(Cluster.slo_breached result)
      ~attainment:(Cluster.slo_attainment result)
  in
  cmd "cluster"
    ~doc:
      "Run N shard VMs behind a front-end load balancer on the $(b,--jobs) \
       domains and print the fleet SLO report.  The VM and traffic flags \
       apply to every shard; shard seeds derive from $(b,--seed)."
    term

let exit_codes_cmd =
  let term =
    let+ markdown =
      flag_arg [ "markdown" ]
        "Print the GitHub-flavoured markdown table — the literal source of \
         the README's exit-code block."
    in
    print_string
      (if markdown then Exit_codes.markdown_table () else Exit_codes.text ())
  in
  cmd "exit-codes"
    ~doc:
      "Print the process exit-code table (the single source of truth the \
       README and the binary both use)."
    term

let experiment_cmd =
  let module E = Cgc_experiments in
  let tables = E.Tables123.run and serve = E.Server_latency.run in
  let experiments =
    [
      ("fig1", E.Fig1_specjbb.run);
      ("fig2", E.Fig2_pbob.run);
      ("table1", tables);
      ("table2", tables);
      ("table3", tables);
      ("table4", E.Table4_load_balance.run);
      ("javac", E.Javac_exp.run);
      ("packetmem", E.Packet_memory.run);
      ("serverlat", serve);
      ("genlat", serve);
      ("clusterlat", E.Clusterlat.run);
      ("clusterchaos", E.Clusterchaos.run);
      ("ablation-fence", E.Ablations.fence_batching);
      ("ablation-cardpass", E.Ablations.card_passes);
      ("ablation-lazysweep", E.Ablations.lazy_sweep);
      ("ablation-steal", E.Ablations.stealing);
      ("ablation-compact", E.Ablations.compaction);
      ("itanium", E.Ablations.itanium);
    ]
  in
  (* [all] runs each distinct entry once, so Tables 1-3 share a sweep,
     and so do serverlat and genlat. *)
  let distinct =
    List.fold_left
      (fun ran (_, f) -> if List.memq f ran then ran else f :: ran)
      [] experiments
  in
  let all () = List.concat_map (fun f -> f ()) (List.rev distinct) in
  let experiments = experiments @ [ ("all", all) ] in
  let names = List.map fst experiments in
  let term =
    let+ which =
      Arg.(
        required
        & pos 0 (some (enum (List.combine names names))) None
        & info [] ~docv:"NAME"
            ~doc:("Experiment: " ^ String.concat ", " names ^ "."))
    and+ metrics_out =
      metrics_out
        ~doc:
          "Write every per-run metrics record the experiment measured to \
           $(docv) as CSV."
        ()
    and+ jobs =
      jobs
        "Run the experiment's independent simulations on $(docv) OCaml \
         domains.  Host-side parallelism only: results (tables, metrics \
         CSV) are identical at every job count."
    and+ fast in
    E.Common.set_quick fast;
    Dpool.set_size jobs;
    let metrics = List.assoc which experiments () in
    if metrics = [] && metrics_out <> None then begin
      Printf.eprintf
        "cgcsim: experiment %s measures no per-run metrics records; its \
         results are on stdout only (drop --metrics-out)\n"
        which;
      exit Exit_codes.usage
    end;
    output
      (Printf.sprintf "metrics of %d runs" (List.length metrics))
      (E.Common.write_metrics_csv metrics)
      metrics_out
  in
  cmd "experiment"
    ~doc:
      "Run a paper-reproduction experiment or ablation, or $(b,all) of them."
    term

let () =
  let info =
    Cmd.info "cgcsim" ~exits
      ~doc:
        "Simulator of the PLDI 2002 parallel, incremental and mostly \
         concurrent garbage collector."
  in
  eval
    (Cmd.group info
       [
         run_cmd;
         serve_cmd;
         cluster_cmd;
         analyze_cmd;
         experiment_cmd;
         exit_codes_cmd;
       ])
