(* The fixed benchmark matrix: workloads x thread counts x tracing rates,
   every cell traced and profiled, results written as one deterministic
   JSON document (schema cgcsim-bench-v1) — the benchmark trajectory the
   repo tracks across PRs.

     dune exec bench/main.exe -- matrix --jobs 4 --out BENCH_PR10.json \
         --trace-out bench-cell0.trace.json

   Cells are independent simulations (each owns its VM, machine, PRNG
   and event rings), so --jobs N fans them out over N OCaml 5 domains.
   Parallelism is host-side only: the document is byte-identical at
   every job count.  It holds no host timing; perfbench/ measures host
   speed.

   Cells run without a warm-up window so the trace covers the run from
   cycle 0 and the derived metrics account for every event.  The harness
   *fails* (exit 1, after writing the file) if any cell dropped events to
   ring overflow: a truncated trace silently skews every derived metric,
   so drops are a configuration bug — raise the per-cell ring capacity or
   shrink the simulated window. *)

module Vm = Cgc_runtime.Vm
module Config = Cgc_core.Config
module Obs = Cgc_obs.Obs
module Analysis = Cgc_prof.Analysis
module Sampler = Cgc_prof.Sampler
module Series = Cgc_prof.Series
module Json = Cgc_prof.Json
module Server = Cgc_server.Server
module Server_report = Cgc_server.Report
module Cluster = Cgc_cluster.Cluster
module Cluster_report = Cgc_cluster.Report
module Shard = Cgc_cluster.Shard
module Cluster_fault = Cgc_fault.Cluster_fault

let bench_schema = Cgc_prof.Tails.bench_schema

type cell = {
  workload : string;
  warehouses : int;
  k0 : float;
  rate : float;  (* offered req/s; serve and cluster cells only *)
  shards : int;  (* cluster cells only *)
  chaos : Cluster_fault.scenario option;  (* cluster cells only *)
  gc_mode : Config.mode;  (* the --gc axis: Cgc, Stw or Gen *)
  ms : float;
  ring : int;  (* per-thread event-ring capacity *)
}

let cell_label c =
  let base =
    match c.workload with
    | "serve" -> Printf.sprintf "serve-%.0frps" c.rate
    | "cluster" -> (
        let base = Printf.sprintf "cluster-%dsh-%.0frps" c.shards c.rate in
        match c.chaos with
        | None -> base
        | Some sc -> base ^ "-" ^ Cluster_fault.to_name sc)
    | _ -> Printf.sprintf "%s-%dwh-k0=%.0f" c.workload c.warehouses c.k0
  in
  if c.gc_mode = Config.Cgc then base
  else base ^ "-" ^ Config.mode_name c.gc_mode

(* SPECjbb cells get deep rings (a dozen threads saturating 4 CPUs emit
   a lot); pBOB cells spread far fewer events over hundreds of threads,
   and rings are preallocated per thread, so theirs stay shallow. *)
let matrix ~fast =
  let rates = if fast then [ 8.0 ] else [ 4.0; 8.0; 12.0 ] in
  let ms = if fast then 800.0 else 1500.0 in
  let spec wh =
    List.map
      (fun k0 ->
        { workload = "specjbb"; warehouses = wh; k0; rate = 0.0; shards = 0;
          chaos = None; gc_mode = Config.Cgc; ms; ring = 1 lsl 18 })
      rates
  in
  let pbob wh =
    List.map
      (fun k0 ->
        { workload = "pbob"; warehouses = wh; k0; rate = 0.0; shards = 0;
          chaos = None; gc_mode = Config.Cgc; ms; ring = 1 lsl 17 })
      rates
  in
  (* Open-loop server cells (the PR 5 subsystem): CGC at the default
     tracing rate under increasing offered load.  The gen cells run the
     same server on the generational front end (PR 10) at the same total
     heap budget, so the cell pair is a direct nursery-vs-no-nursery
     comparison with per-cell minor/major pause counts in the JSON. *)
  let serve ?(mode = Config.Cgc) rate =
    { workload = "serve"; warehouses = 0; k0 = 8.0; rate; shards = 0;
      chaos = None; gc_mode = mode; ms; ring = 1 lsl 17 }
  in
  (* Sharded-cluster cells (the PR 6 subsystem): shard count x offered
     fleet load, round-robin routing.  Untraced — a cluster cell's cost
     is its shard simulations, and its artefact is the embedded
     cgcsim-cluster-v3 fleet report.  The chaos cells (PR 7) track the
     failover path: availability and retry counts under a deterministic
     shard restart live in the embedded report's chaos block. *)
  let cluster ?chaos shards rate =
    { workload = "cluster"; warehouses = 0; k0 = 8.0; rate; shards; chaos;
      gc_mode = Config.Cgc; ms; ring = 1 lsl 17 }
  in
  if fast then
    spec 4 @ pbob 8
    @ [ serve 6000.0; serve ~mode:Config.Gen 6000.0; cluster 2 6000.0;
        cluster ~chaos:Cluster_fault.Shard_restart 2 6000.0 ]
  else
    spec 4 @ spec 8 @ pbob 8 @ pbob 16
    @ [ serve 4000.0; serve 8000.0;
        serve ~mode:Config.Gen 4000.0; serve ~mode:Config.Gen 8000.0 ]
    @ [ cluster 4 8000.0; cluster 4 16000.0; cluster 8 16000.0;
        cluster 8 32000.0;
        cluster ~chaos:Cluster_fault.Shard_restart 4 16000.0;
        cluster ~chaos:Cluster_fault.Ring_flap 8 16000.0 ]

(* A finished cell is either one VM (possibly with a server attached) or
   a whole fleet result. *)
type ran = Sim of Vm.t * Server.t option | Fleet of Cluster.result

let run_cell c =
  let base =
    match c.gc_mode with
    | Config.Cgc -> Config.default
    | Config.Stw -> Config.stw
    | Config.Gen -> Config.gen
  in
  let gc = { base with Config.k0 = c.k0 } in
  match c.workload with
  | "cluster" ->
      (* The fleet draws on the same domain pool as the matrix itself;
         the nested batch runs inline on this cell's domain. *)
      (* 16 MB per shard, like the serve cells: the short window must
         contain GC cycles for the fleet report to say anything. *)
      let cfg =
        Cluster.cfg ~shards:c.shards ~rate_per_s:c.rate ~gc ~slo_ms:50.0
          ~heap_mb:16.0 ~ms:c.ms ?chaos:c.chaos ()
      in
      Fleet (Cluster.run cfg)
  | _ ->
  let vm, srv =
    match c.workload with
    | "specjbb" ->
        ( Cgc_workloads.Specjbb.setup ~warehouses:c.warehouses ~gc ~heap_mb:48.0
            ~ncpus:4 ~seed:1 ~trace:true ~trace_ring:c.ring (),
          None )
    | "pbob" ->
        (* Short think time and a small heap so the cell reaches several
           GC cycles inside the window while keeping the idle fraction
           that lets the background tracers participate. *)
        ( Cgc_workloads.Pbob.setup ~warehouses:c.warehouses ~gc ~terminals:10
            ~heap_mb:32.0 ~ncpus:4 ~seed:1 ~trace:true ~trace_ring:c.ring
            ~think_mean:1_100_000 ~residency_at:(16, 0.5) (),
          None )
    | "serve" ->
        (* Smaller heap than the warehouse cells so the short window
           still contains GC cycles (and their latency inflation). *)
        let vm =
          Vm.create
            (Vm.config ~heap_mb:16.0 ~ncpus:4 ~seed:1 ~gc ~trace:true
               ~trace_ring:c.ring ())
        in
        let scfg =
          Server.cfg ~rate_per_s:c.rate ~queue_cap:256 ~workers:4 ~slo_ms:50.0
            ()
        in
        (vm, Some (Server.create scfg vm))
    | w -> invalid_arg ("bench matrix: unknown workload " ^ w)
  in
  Vm.enable_profiler vm;
  Option.iter Server.attach_probes srv;
  Vm.run vm ~ms:c.ms;
  Sim (vm, srv)

let sampler_json vm =
  match Vm.profiler vm with
  | None -> Json.Null
  | Some p ->
      let stat name =
        match Sampler.find p name with
        | None -> []
        | Some s ->
            [
              (name ^ "Mean", Json.Float (Series.mean s));
              (name ^ "Max", Json.Float (Series.max s));
            ]
      in
      Json.Obj
        (("ticks", Json.Int (Sampler.ticks p))
        :: (stat "pool-in-use" @ stat "cards-dirty" @ stat "mutators-running"
          @ stat "server-queue-depth" @ stat "server-in-flight"))

let cell_json c vm srv =
  let o = Vm.obs vm in
  let a =
    Analysis.analyse_events ~cycles_per_us:(Vm.cycles_per_us vm)
      (Obs.events_array o)
  in
  let bal = a.Analysis.balance and p = a.Analysis.pauses in
  let json =
    Json.Obj
      [
        ("workload", Json.Str c.workload);
        ("warehouses", Json.Int c.warehouses);
        ("gcMode", Json.Str (Config.mode_name c.gc_mode));
        ("k0", Json.Float c.k0);
        ("ms", Json.Float c.ms);
        ("seed", Json.Int 1);
        ("throughput", Json.Float (Vm.throughput vm));
        ("transactions", Json.Int (Vm.total_transactions vm));
        ("gcCycles", Json.Int a.Analysis.n_cycles);
        ("events", Json.Int a.Analysis.n_events);
        ("emitted", Json.Int (Obs.emitted o));
        ("dropped", Json.Int (Obs.dropped o));
        ( "mmu",
          Json.Arr
            (List.map
               (fun (m : Analysis.mmu_point) ->
                 Json.Obj
                   [
                     ("windowMs", Json.Float m.window_ms);
                     ("min", Json.Float m.mmu);
                     ("avg", Json.Float m.avg_util);
                     ("windows", Json.Int m.n_windows);
                   ])
               a.Analysis.mmu) );
        ( "pauses",
          Json.Obj
            [
              ("count", Json.Int p.pause_count);
              ("meanMs", Json.Float p.pause_mean_ms);
              ("p50Ms", Json.Float p.pause_p50_ms);
              ("p90Ms", Json.Float p.pause_p90_ms);
              ("p99Ms", Json.Float p.pause_p99_ms);
              ("maxMs", Json.Float p.pause_max_ms);
            ] );
        (* Per-generation decomposition: "pauses" above counts the
           world-stopping major pauses, this block the one-mutator minor
           pauses.  All-zero for non-gen cells. *)
        ( "minorPauses",
          Json.Obj
            [
              ("count", Json.Int a.Analysis.gen.Analysis.minor_count);
              ("meanMs", Json.Float a.Analysis.gen.Analysis.minor_mean_ms);
              ("p99Ms", Json.Float a.Analysis.gen.Analysis.minor_p99_ms);
              ("maxMs", Json.Float a.Analysis.gen.Analysis.minor_max_ms);
              ( "promotedSlots",
                Json.Int a.Analysis.gen.Analysis.promoted_slots );
            ] );
        ( "loadBalance",
          Json.Obj
            [
              ("busyStddevMs", Json.Float bal.busy_stddev_ms);
              ("busyCv", Json.Float bal.busy_cv);
              ("slotsCv", Json.Float bal.slots_cv);
              ("factorMean", Json.Float bal.factor_mean);
              ("factorStddev", Json.Float bal.factor_stddev);
              ("fairness", Json.Float bal.fairness);
            ] );
        ("sampler", sampler_json vm);
        ( "server",
          match srv with
          | None -> Json.Null
          | Some s ->
              Server_report.to_json (Server.the_cfg s) ~ran_ms:c.ms
                (Server.totals s) );
      ]
  in
  (json, Obs.dropped o, a)

(* Everything a finished cell contributes, computed inside the worker
   domain so the (large) VM never escapes it. *)
type cell_result = {
  json : Json.t;  (* the cell's entry in the document *)
  drops : int;
  row : string list;  (* the progress table row *)
  trace : string option;  (* Chrome trace, kept for cell 0 only *)
}

let run ~out ?trace_out ~jobs ~fast () =
  Cgc_experiments.Common.hdr
    (Printf.sprintf "Benchmark matrix (%s)" bench_schema);
  let cells = matrix ~fast in
  let ncells = List.length cells in
  Printf.printf "%d cells, %s mode, %d job%s\n%!" ncells
    (if fast then "smoke" else "full")
    jobs
    (if jobs = 1 then "" else "s");
  Cgc_experiments.Common.set_jobs jobs;
  let results =
    Cgc_experiments.Common.par_map
      ~progress:(fun _ (i, c) ->
        Printf.printf "[%d/%d] %s...\n%!" (i + 1) ncells (cell_label c))
      (List.mapi (fun i c -> (i, c)) cells)
      (fun (i, c) ->
        let label = cell_label c in
        match run_cell c with
        | Sim (vm, srv) ->
            let trace =
              if i = 0 && trace_out <> None then Some (Vm.trace_json vm)
              else None
            in
            let json, drops, a = cell_json c vm srv in
            let mmu20 =
              match
                List.find_opt
                  (fun (p : Analysis.mmu_point) -> p.Analysis.window_ms = 20.0)
                  a.Analysis.mmu
              with
              | Some p -> p.Analysis.mmu
              | None -> 0.0
            in
            let row =
              [ label;
                Printf.sprintf "%.0f" (Vm.throughput vm);
                string_of_int a.Analysis.n_cycles;
                Cgc_util.Table.fpct mmu20;
                Cgc_util.Table.f2 a.Analysis.pauses.Analysis.pause_p99_ms;
                Cgc_util.Table.f3 a.Analysis.balance.Analysis.factor_mean;
                Cgc_util.Table.f3 a.Analysis.balance.Analysis.fairness;
                string_of_int drops ]
            in
            { json; drops; row; trace }
        | Fleet r ->
            let tot = Cluster.fleet_totals r in
            let sum f = Array.fold_left (fun acc s -> acc + f s) 0 r.Cluster.shards in
            let drops = sum (fun s -> s.Shard.dropped) in
            let cycles = sum (fun s -> s.Shard.gc_cycles) in
            let max_pause =
              Array.fold_left
                (fun acc (s : Shard.result) ->
                  Float.max acc s.Shard.max_pause_ms)
                0.0 r.Cluster.shards
            in
            let json =
              Json.Obj
                [
                  ("workload", Json.Str c.workload);
                  ("shards", Json.Int c.shards);
                  ( "chaos",
                    match c.chaos with
                    | None -> Json.Null
                    | Some sc -> Json.Str (Cluster_fault.to_name sc) );
                  ("ratePerS", Json.Float c.rate);
                  ("ms", Json.Float c.ms);
                  ("seed", Json.Int 1);
                  ("gcCycles", Json.Int cycles);
                  ("dropped", Json.Int drops);
                  ("cluster", Cluster_report.to_json r);
                ]
            in
            let row =
              [ label;
                Printf.sprintf "%.0f"
                  (float_of_int tot.Server.completed /. (c.ms /. 1000.0));
                string_of_int cycles;
                "-";
                Cgc_util.Table.f2 max_pause;
                "-";
                "-";
                string_of_int drops ]
            in
            { json; drops; row; trace = None })
  in
  (match (trace_out, results) with
  | Some file, { trace = Some trace; _ } :: _ ->
      Cgc_obs.Export.write_file file trace;
      Printf.printf "cell-0 trace written to %s\n%!" file
  | _ -> ());
  let t = Cgc_util.Table.create ~title:""
      ~header:[ "cell"; "tx/s"; "cycles"; "MMU 20ms"; "p99 pause"; "factor";
                "fairness"; "dropped" ]
  in
  List.iter (fun r -> Cgc_util.Table.add_row t r.row) results;
  Cgc_util.Table.print t;
  let total_drops = List.fold_left (fun acc r -> acc + r.drops) 0 results in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str bench_schema);
        ("fast", Json.Bool fast);
        ("cells", Json.Arr (List.map (fun r -> r.json) results));
      ]
  in
  Cgc_obs.Export.write_file out (Json.to_string ~pretty:true doc);
  Printf.printf "benchmark matrix written to %s\n" out;
  if total_drops > 0 then begin
    Printf.eprintf
      "bench: FAIL — %d events dropped by ring overflow across the matrix; \
       derived metrics are untrustworthy (raise ring capacities or shrink \
       the windows)\n"
      total_drops;
    exit 1
  end
