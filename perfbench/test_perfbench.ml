(* The benchmark's own rules: the percentile rule, the layer-timing
   hook's exact accounting, the failure formula, and the simulated
   fingerprint's behaviour across run kinds and seeds. *)

module P = Perfbench
module Vm = Cgc_runtime.Vm
module Config = Cgc_core.Config
module Sched = Cgc_sim.Sched
module Gstats = Cgc_core.Gstats
module Server = Cgc_server.Server

let short = { P.warmup_ms = 100.0; ms = 300.0 }

(* The highest ladder percentile with at least ten samples beyond its
   nearest rank, and no higher one. *)
let test_percentile_rule () =
  let check n expect =
    Alcotest.(check (option (float 0.0)))
      (Printf.sprintf "n=%d" n) expect (P.tail_percentile n)
  in
  check 0 None;
  check 10 None;
  check 99 None;
  check 100 (Some 90.0);
  check 1_000 (Some 99.0);
  check 9_999 (Some 99.0);
  check 10_010 (Some 99.9);
  check 100_000 (Some 99.99);
  for n = 1 to 30_000 do
    match P.tail_percentile n with
    | None -> assert (P.beyond ~n 90.0 < 10)
    | Some p ->
        assert (P.beyond ~n p >= 10);
        List.iter
          (fun q -> if q > p then assert (P.beyond ~n q < 10))
          P.tail_ladder
  done

(* The on_advance buckets partition the measured window's host time
   exactly, and the minor bucket is a part of it. *)
let test_buckets_sum () =
  List.iter
    (fun gc ->
      let vm =
        Vm.create (Vm.config ~heap_mb:16.0 ~ncpus:4 ~seed:3 ~gc ())
      in
      ignore (Server.create (Server.cfg ~rate_per_s:8000.0 ()) vm);
      Vm.run vm ~ms:100.0;
      Vm.reset_stats vm;
      let b = P.layer_window vm (fun () -> Vm.run vm ~ms:400.0) in
      let window = b.P.window_stop - b.P.window_start in
      Alcotest.(check int)
        (Config.mode_name gc.Config.mode ^ ": buckets sum to the window")
        window
        (b.P.idle_ns + b.P.marking_ns + b.P.stw_ns);
      assert (b.P.dispatches > 0);
      assert (b.P.minor_ns >= 0 && b.P.minor_ns <= window);
      if gc.Config.mode = Config.Gen then
        assert ((Vm.gc_stats vm).Gstats.minors > 0))
    [ Config.default; Config.gen; Config.stw ]

(* failed_frac on an overloaded stop-the-world server that sheds: the
   failures are Server.totals' sheds and timeouts plus the backlog at
   the end, and with no warm-up they account for every arrival. *)
let test_failed_frac () =
  let vm =
    Vm.create (Vm.config ~heap_mb:16.0 ~ncpus:4 ~seed:1 ~gc:Config.stw ())
  in
  let srv =
    Server.create
      (Server.cfg ~rate_per_s:40_000.0 ~queue_cap:64 ~timeout_ms:5.0 ())
      vm
  in
  Vm.run vm ~ms:300.0;
  let t = Server.totals srv in
  let f = P.server_failures srv in
  assert (t.Server.shed_full > 0);
  Alcotest.(check int) "shed" (t.Server.shed_full + t.Server.shed_throttled) f.P.shed;
  Alcotest.(check int) "timed out" t.Server.timed_out f.P.timed_out;
  Alcotest.(check int) "every arrival completed or failed" t.Server.arrived
    (t.Server.completed + P.failed f);
  Alcotest.(check (float 1e-12))
    "failed_frac"
    (float_of_int (P.failed f) /. float_of_int t.Server.arrived)
    (P.failed_frac ~attempted:t.Server.arrived f)

let fingerprint w ~kind ~seed =
  match P.run w ~kind ~seed ~win:short with
  | Ok r ->
      Alcotest.(check (list string)) "no failed checks" [] r.P.problems;
      r.P.fp
  | Error (e, _) -> Alcotest.fail e

let fp_testable = Alcotest.(list (pair string (float 0.0)))

(* Every run kind reproduces the untraced fingerprint, and another seed
   changes it. *)
let test_fingerprints w () =
  let base = fingerprint w ~kind:P.Untraced ~seed:1 in
  List.iter
    (fun kind ->
      Alcotest.check fp_testable (P.kind_name kind) base
        (fingerprint w ~kind ~seed:1))
    [ P.Traced; P.Layer_timed; P.Verified ];
  if base = fingerprint w ~kind:P.Untraced ~seed:2 then
    Alcotest.fail "seed 2 gives the same fingerprint as seed 1"

(* The jbb VM, which times each transaction, simulates exactly what
   Specjbb.setup does. *)
let test_jbb_is_specjbb () =
  let summary vm =
    Vm.run vm ~ms:300.0;
    let gs = Vm.gc_stats vm in
    [
      Sched.busy_cycles (Vm.sched vm);
      Sched.idle_cycles (Vm.sched vm);
      Vm.total_transactions vm;
      gs.Gstats.total_alloc_slots;
      gs.Gstats.cycles;
    ]
  in
  let ours =
    summary (P.jbb_vm ~gc:Config.default ~seed:5 ~trace:false (Cgc_util.Stats.create ()))
  in
  let theirs =
    summary
      (Cgc_workloads.Specjbb.setup ~warehouses:8 ~gc:Config.default
         ~heap_mb:48.0 ~ncpus:4 ~seed:5 ())
  in
  Alcotest.(check (list int)) "same simulation" theirs ours

let () =
  Alcotest.run "perfbench"
    [
      ( "rules",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "phase buckets sum to the window" `Quick
            test_buckets_sum;
          Alcotest.test_case "failed_frac on a shedding stw server" `Quick
            test_failed_frac;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "jbb VM is Specjbb.setup" `Quick test_jbb_is_specjbb;
          Alcotest.test_case "jbb runs agree, seeds differ" `Quick
            (test_fingerprints P.Jbb);
          Alcotest.test_case "serve-gen runs agree, seeds differ" `Quick
            (test_fingerprints P.Serve_gen);
          Alcotest.test_case "fleet runs agree, seeds differ" `Quick
            (test_fingerprints P.Fleet);
        ] );
    ]
