(* Fault-injection matrix: every scenario of the deterministic injector
   runs a churn workload with the heap invariant verifier armed.  The
   collector must *degrade* (ladder rungs, halted cycles) but never
   *corrupt* (verifier green, reachability intact, no tracer
   corruption) and never reach out-of-memory while the live data fits.
   Also covers same-seed trace determinism under faults and the
   packet-starvation corner of the deferred-object machinery. *)

module Vm = Cgc_runtime.Vm
module Mutator = Cgc_runtime.Mutator
module Collector = Cgc_core.Collector
module Config = Cgc_core.Config
module Gstats = Cgc_core.Gstats
module Tracer = Cgc_core.Tracer
module Verify = Cgc_core.Verify
module Fault = Cgc_fault.Fault
module Machine = Cgc_smp.Machine
module Heap = Cgc_heap.Heap
module Arena = Cgc_heap.Arena
module Alloc_bits = Cgc_heap.Alloc_bits
module Pool = Cgc_packets.Pool
module Objgraph = Cgc_workloads.Objgraph
module Prng = Cgc_util.Prng

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

(* Same churn shape as the fuzzer: a resident list per root slot plus a
   steady stream of garbage, so cycles happen and the verifier has a
   non-trivial graph to walk. *)
let churn resident m =
  let rng = Mutator.rng m in
  for i = 0 to 3 do
    let head = Objgraph.build_list m ~len:resident ~node_slots:10 in
    Mutator.root_set m i head
  done;
  while not (Mutator.stopped m) do
    let li = Prng.int rng 4 in
    let old = Mutator.root_get m li in
    let tail = Mutator.get_ref m old 0 in
    let fresh = Mutator.alloc m ~nrefs:1 ~size:10 in
    Mutator.set_ref m fresh 0 tail;
    Mutator.root_set m li fresh;
    for _ = 1 to 4 do
      let o = Mutator.alloc m ~nrefs:1 ~size:(4 + Prng.int rng 8) in
      Mutator.root_set m 4 o
    done;
    Mutator.root_set m 4 0;
    Mutator.work m 4_000;
    Mutator.tx_done m
  done

(* The VM config of a churn run with the given scenarios armed and the
   verifier on. *)
let faulted_config ?(heap_mb = 4.0) ?(seed = 11) ?(trace = false) ~scenarios
    () =
  let faults = Fault.create ~scenarios ~seed () in
  let gc = { Config.default with Config.faults; verify = true } in
  Vm.config ~heap_mb ~ncpus:4 ~seed ~gc ~trace ()

(* Run a 2-mutator churn VM built from [cfg].  Any invariant violation
   raises out of Vm.run and fails the test; the caller asserts on the
   returned vm and the injector that VM armed. *)
let run_config ?(ms = 400.0) cfg =
  let vm = Vm.create cfg in
  let resident =
    max 10
      (int_of_float (cfg.Vm.heap_mb *. 1024.0 *. 1024.0 /. 8.0 /. 3.0)
      / (2 * 4 * 10))
  in
  for i = 1 to 2 do
    Vm.spawn_mutator vm ~name:(Printf.sprintf "w%d" i) (churn resident)
  done;
  Vm.run vm ~ms;
  (vm, (Collector.config (Vm.collector vm)).Config.faults)

let run_faulted ?heap_mb ?ms ?seed ?trace ~scenarios () =
  run_config ?ms (faulted_config ?heap_mb ?seed ?trace ~scenarios ())

let assert_sound vm =
  Cgc_smp.Weakmem.fence_all (Vm.machine vm).Machine.wm;
  let coll = Vm.collector vm in
  check cb "reachable heap intact" true (Collector.check_reachable coll = []);
  check ci "no tracer corruption" 0 (Tracer.corruptions (Collector.tracer coll))

(* Each scenario individually: it must actually fire, the verifier must
   stay green at every cycle boundary, and the heap must stay sound. *)
let test_scenario sc () =
  let vm, faults = run_faulted ~scenarios:[ sc ] () in
  let st = Vm.gc_stats vm in
  check cb "GC cycles ran (verifier exercised)" true (st.Gstats.cycles > 0);
  let fired = List.assoc sc (Fault.injections faults) in
  check cb
    (Printf.sprintf "%s fired at least once" (Fault.to_name sc))
    true (fired > 0);
  check ci "no out-of-memory" 0 st.Gstats.oom_raised;
  assert_sound vm

(* All scenarios at once under memory pressure: the collector must
   visibly degrade (ladder rungs climbed or cycles halted early) yet
   neither corrupt the heap nor run out of memory — the live data still
   fits, the injector only makes life hard. *)
let test_all_scenarios_degrade () =
  let vm, faults = run_faulted ~scenarios:Fault.all ~heap_mb:3.0 ~ms:600.0 () in
  let st = Vm.gc_stats vm in
  check cb "GC cycles ran" true (st.Gstats.cycles > 0);
  check cb "all six scenarios fired" true
    (List.for_all (fun (_, n) -> n > 0) (Fault.injections faults));
  let rungs =
    st.Gstats.degrade_force_finish + st.Gstats.degrade_full_stw
    + st.Gstats.degrade_compact
  in
  check cb "degradation observed (ladder or halted cycles)" true
    (rungs > 0 || st.Gstats.halted_cycles > 0);
  check ci "no out-of-memory" 0 st.Gstats.oom_raised;
  assert_sound vm

(* Determinism: the injector draws from its own split PRNG and keys its
   windows on simulated time, so equal seeds + equal scenario sets give
   byte-identical event traces.  [config_of] supplies each run's
   config. *)
let check_identical_runs config_of =
  let trace_of () =
    let vm, faults = run_config ~ms:200.0 (config_of ()) in
    (Vm.trace_json vm, Fault.total_injections faults)
  in
  let t1, n1 = trace_of () in
  let t2, n2 = trace_of () in
  check cb "some injections happened" true (n1 > 0);
  check ci "same injection count" n1 n2;
  check cb "byte-identical traces" true (String.equal t1 t2)

let test_same_seed_identical_traces () =
  check_identical_runs (faulted_config ~scenarios:Fault.all ~trace:true)

(* Each VM arms its own injector from the config's template, so two VMs
   built one after the other from one config — as a fleet builds its
   shards — replay the same faults, and the template never fires. *)
let test_config_reuse_identical () =
  let cfg = faulted_config ~scenarios:Fault.all ~trace:true () in
  check_identical_runs (fun () -> cfg);
  check ci "the config's template never fires" 0
    (Fault.total_injections cfg.Vm.gc.Config.faults)

(* The packet-starvation corner of the section 5.2 deferral machinery:
   an unsafe (unpublished) object is parked in a Deferred packet while
   the pool behaves normally; then the injector opens a starvation
   window.  Tracing makes no progress during the window but loses no
   work: recycle_deferred still recovers the packet, and once the
   window closes the object is traced normally. *)
let test_starved_defer_recovers () =
  let mach = Machine.testing () in
  let heap = Heap.create mach ~nslots:65536 in
  let clock = Cgc_util.Clock.manual () in
  clock.base <- 200_000;
  (* window open iff now mod 1_100_000 < 165_000 *)
  let faults =
    Fault.arm ~clock ~obs:Cgc_obs.Obs.null
      (Fault.create ~scenarios:[ Fault.Packet_starvation ] ~seed:7 ())
  in
  let pool = Pool.create mach ~n_packets:4 ~capacity:8 ~faults in
  let tracer = Tracer.create Config.default heap pool in
  let a =
    match Heap.alloc_large heap ~size:4 ~nrefs:1 ~mark_new:false with
    | Some a -> a
    | None -> Alcotest.fail "allocation failed"
  in
  let unpub = 30_000 in
  Arena.write_header (Heap.arena heap) unpub ~size:6 ~nrefs:0;
  Arena.ref_set_raw (Heap.arena heap) a 0 unpub;
  let drain () =
    let s = Tracer.new_session tracer in
    let rec go n =
      let k = Tracer.trace_until tracer s ~budget:max_int in
      if k > 0 then go (n + k) else n
    in
    let n = go 0 in
    Tracer.release tracer s;
    n
  in
  (* 1. window closed: normal trace defers the unsafe object *)
  let s = Tracer.new_session tracer in
  Tracer.push_obj tracer s a;
  Tracer.release tracer s;
  ignore (drain ());
  check ci "unsafe object parked in a deferred packet" 1
    (Pool.deferred_count pool);
  check cb "marked though not yet scanned" true (Heap.is_marked heap unpub);
  (* 2. publish the object, then open the starvation window *)
  Alloc_bits.set (Heap.alloc_bits heap) unpub;
  clock.base <- 1_100_000;
  check cb "starvation window open" true (Fault.starve_packets faults);
  (* recycling deferred packets does not go through the starved
     get_input/get_output path, so no work is lost *)
  check ci "recycle recovers the deferred packet" 1
    (Pool.recycle_deferred pool);
  check ci "tracing starved: no progress during the window" 0 (drain ());
  check ci "packet still queued, not dropped" 0
    (Pool.deferred_count pool);
  (* 3. window closes: the parked work completes *)
  clock.base <- 2_400_000;
  check cb "window closed again" true (not (Fault.starve_packets faults));
  let traced = drain () in
  check cb "deferred object finally scanned" true (traced > 0);
  check cb "pool terminated — nothing lost" true (Pool.terminated pool);
  check ci "no corruption" 0 (Tracer.corruptions tracer)

(* --------------------------- chaos plans ---------------------------- *)

module Cluster_fault = Cgc_fault.Cluster_fault

let qcheck_chaos_plan_well_formed =
  (* The fleet chaos plan is a pure function of its inputs, and the
     cluster layer leans on its geometry: victim in range, incarnations
     tiling the victim's uptime in order, live_at agreeing with the
     incarnation intervals, and recovery only for scenarios that
     actually recover. *)
  QCheck.Test.make ~name:"cluster chaos plan: deterministic, well-formed"
    ~count:200
    QCheck.(
      quad (int_range 0 3) (int_range 0 1000) (int_range 1 8)
        (int_range 100_000 20_000_000))
    (fun (sci, seed, shards, horizon) ->
      let scenario = List.nth Cluster_fault.all sci in
      let p = Cluster_fault.make ~scenario ~seed ~shards ~horizon in
      let p' = Cluster_fault.make ~scenario ~seed ~shards ~horizon in
      let v = Cluster_fault.victim p in
      let ok = ref (v >= 0 && v < shards) in
      let rec ordered = function
        | [] -> false
        | [ (a : Cluster_fault.incarnation) ] ->
            a.Cluster_fault.start < a.Cluster_fault.stop
        | a :: (b :: _ as rest) ->
            a.Cluster_fault.start < a.Cluster_fault.stop
            && a.Cluster_fault.stop <= b.Cluster_fault.start
            && ordered rest
      in
      for k = 0 to shards - 1 do
        let incs = Cluster_fault.incarnations p ~shard:k in
        if incs <> Cluster_fault.incarnations p' ~shard:k then ok := false;
        (match incs with
        | { Cluster_fault.index = 0; start = 0; _ } :: _ -> ()
        | _ -> ok := false);
        List.iteri
          (fun i (inc : Cluster_fault.incarnation) ->
            if inc.Cluster_fault.index <> i then ok := false)
          incs;
        if not (ordered incs) then ok := false;
        if k <> v then begin
          match incs with
          | [ { Cluster_fault.crashed = false; stop; _ } ]
            when stop >= horizon ->
              ()
          | _ -> ok := false
        end;
        (* live_at is exactly "inside some incarnation" at sampled
           points across the run *)
        for s = 0 to 20 do
          let t = s * (horizon / 21) in
          let inside =
            List.exists
              (fun (i : Cluster_fault.incarnation) ->
                t >= i.Cluster_fault.start
                && t < Stdlib.min i.Cluster_fault.stop horizon)
              incs
          in
          if Cluster_fault.live_at p ~shard:k t <> inside then ok := false
        done;
        match Cluster_fault.brownout p ~shard:k with
        | Some (b0, b1, f) ->
            if scenario <> Cluster_fault.Shard_brownout || k <> v then
              ok := false;
            if not (b0 < b1 && b1 < horizon && f > 1.0) then ok := false
        | None ->
            if scenario = Cluster_fault.Shard_brownout && k = v then
              ok := false
      done;
      (match Cluster_fault.first_onset p with
      | Some t -> if t < 0 || t >= horizon then ok := false
      | None -> ok := false);
      (match (scenario, Cluster_fault.recovered_at p) with
      | Cluster_fault.Shard_crash, Some _ ->
          (* a crash never recovers *)
          ok := false
      | Cluster_fault.Shard_crash, None -> ()
      | _, Some t ->
          if t <= 0 || t >= horizon then ok := false;
          (match Cluster_fault.first_onset p with
          | Some onset -> if onset >= t then ok := false
          | None -> ok := false)
      | _, None ->
          (* restart/brownout windows sit well inside the horizon *)
          ok := false);
      let inert = Cluster_fault.none ~horizon in
      if Cluster_fault.victim inert <> -1 then ok := false;
      if Cluster_fault.first_onset inert <> None then ok := false;
      for k = 0 to shards - 1 do
        if not (Cluster_fault.live_at inert ~shard:k (horizon / 2)) then
          ok := false
      done;
      !ok)

(* FAULTS.md's two scenario tables list every scenario once, with the
   index and name the library declares. *)
let test_fault_table_matches () =
  Doc_table.check ~doc:"FAULTS.md"
    ~header:"| index | name | site | what it models |" ~columns:[ 0; 1 ]
    (List.map (fun s -> [ string_of_int (Fault.index s); Fault.to_name s ])
       Fault.all)

let test_cluster_fault_table_matches () =
  Doc_table.check ~doc:"FAULTS.md" ~header:"| index | name | what it models |"
    ~columns:[ 0; 1 ]
    (List.map
       (fun s ->
         [ string_of_int (Cluster_fault.index s); Cluster_fault.to_name s ])
       Cluster_fault.all)

let () =
  let scen_cases =
    List.map
      (fun sc ->
        Alcotest.test_case
          (Printf.sprintf "%s under verifier" (Fault.to_name sc))
          `Slow (test_scenario sc))
      Fault.all
  in
  Alcotest.run "faults"
    [
      ("scenarios", scen_cases);
      ( "degradation",
        [
          Alcotest.test_case "all scenarios degrade without corruption" `Slow
            test_all_scenarios_degrade;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, identical traces" `Slow
            test_same_seed_identical_traces;
          Alcotest.test_case "one config, two VMs, identical faults" `Slow
            test_config_reuse_identical;
        ] );
      ( "starvation",
        [
          Alcotest.test_case "deferred packets survive starvation" `Quick
            test_starved_defer_recovers;
        ] );
      ( "chaos-plan",
        [ QCheck_alcotest.to_alcotest qcheck_chaos_plan_well_formed ] );
      ( "docs",
        [
          Alcotest.test_case "scenario tables match Fault" `Quick
            test_fault_table_matches;
          Alcotest.test_case "scenario tables match Cluster_fault" `Quick
            test_cluster_fault_table_matches;
        ] );
    ]
