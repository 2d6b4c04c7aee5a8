(* Tests for the open-loop request/latency subsystem (cgc_server):
   arrival processes, scripted latency accounting, queue-bound shedding,
   the admission throttle, timeout abandonment, decomposition adding up
   to end-to-end, the causal-span blame conservation identity,
   Histogram.merge against a concatenated reference, the
   cgcsim-server-v2 schema round-trip, and same-seed determinism of the
   whole server report. *)

module Histogram = Cgc_util.Histogram
module Prng = Cgc_util.Prng
module Json = Cgc_prof.Json
module Vm = Cgc_runtime.Vm
module Config = Cgc_core.Config
module Obs = Cgc_obs.Obs
module Event = Cgc_obs.Event
module Arrival = Cgc_server.Arrival
module Latency = Cgc_server.Latency
module Server = Cgc_server.Server
module Span = Cgc_server.Span
module Report = Cgc_server.Report

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cf = Alcotest.(float 1e-9)
let cpm = 550_000 (* Cost.default.cycles_per_ms *)

(* ----------------------------- arrivals ----------------------------- *)

let test_arrival_constant () =
  let a =
    Arrival.create Arrival.Constant ~rate_per_s:1000.0 ~cycles_per_ms:cpm
      ~rng:(Prng.create 7)
  in
  (* 1000 req/s = one per ms = one per cpm cycles, exactly spaced. *)
  for i = 1 to 5 do
    check ci "constant spacing" (i * cpm) (Arrival.next a)
  done

let test_arrival_deterministic () =
  let seq seed =
    let a =
      Arrival.create Arrival.Poisson ~rate_per_s:5000.0 ~cycles_per_ms:cpm
        ~rng:(Prng.create seed)
    in
    List.init 200 (fun _ -> Arrival.next a)
  in
  check (Alcotest.list ci) "same seed, same arrivals" (seq 3) (seq 3);
  check cb "different seed differs" true (seq 3 <> seq 4);
  check cb "non-decreasing" true
    (let s = seq 3 in
     List.for_all2 (fun x y -> x <= y) s (List.tl s @ [ max_int ]))

let test_arrival_rates_average () =
  (* Over a long horizon every process realises the offered average rate
     (bursty's off-window rate is derived to preserve it). *)
  List.iter
    (fun kind ->
      let a =
        Arrival.create kind ~rate_per_s:4000.0 ~cycles_per_ms:cpm
          ~rng:(Prng.create 11)
      in
      let n = 40_000 in
      let last = ref 0 in
      for _ = 1 to n do
        last := Arrival.next a
      done;
      let secs = float_of_int !last /. float_of_int cpm /. 1000.0 in
      let rate = float_of_int n /. secs in
      check cb
        (Printf.sprintf "%s mean rate %.0f within 5%% of 4000"
           (Arrival.kind_name kind) rate)
        true
        (abs_float (rate -. 4000.0) < 200.0))
    [
      Arrival.Poisson;
      Arrival.Constant;
      Arrival.Bursty { on_ms = 10.0; off_ms = 40.0; factor = 3.0 };
    ]

let test_arrival_bursty_modulates () =
  (* factor 4 with equal windows: on-rate 4x the off-rate-derived
     remainder — the on windows must contain most arrivals. *)
  let a =
    Arrival.create
      (Arrival.Bursty { on_ms = 10.0; off_ms = 10.0; factor = 1.9 })
      ~rate_per_s:8000.0 ~cycles_per_ms:cpm ~rng:(Prng.create 5)
  in
  let on = ref 0 and off = ref 0 in
  for _ = 1 to 20_000 do
    let t = Arrival.next a in
    let ms = float_of_int t /. float_of_int cpm in
    if Float.rem ms 20.0 < 10.0 then incr on else incr off
  done;
  check cb "bursts dominate" true (!on > 3 * !off)

(* ------------------- scripted latency accounting ------------------- *)

(* Hand-computed latencies for a scripted arrival sequence, fed through
   the exact accounting code the server's workers use: the blame split,
   then the histograms read off it. *)
let scripted_blame ~arrival ~start ~finish ~s_arr ~s_start ~s_fin =
  Span.blame_of ~pre:0 ~enqueue:arrival ~start ~finish ~s_enq:s_arr ~s_start
    ~s_fin

let test_scripted_latencies () =
  let l = Latency.create () in
  let cpm_f = float_of_int cpm in
  (* (arrival, start, finish, stopped-integral at arrival / start /
     finish) in cycles; cpm cycles = 1 ms. *)
  let script =
    [
      (* no queueing, 2 ms service, no pause overlap *)
      (0, 0, 2 * cpm, 0, 0, 0);
      (* 1 ms queueing, 3 ms service, 1 ms of it stopped *)
      (cpm, 2 * cpm, 5 * cpm, 0, 0, cpm);
      (* 10 ms queueing (a pause), 1 ms service, pause overlap 10 ms *)
      (5 * cpm, 15 * cpm, 16 * cpm, cpm, 11 * cpm, 11 * cpm);
    ]
  in
  let e2es =
    List.map
      (fun (arrival, start, finish, s_arr, s_start, s_fin) ->
        Latency.observe l ~slo_ms:5.0 ~cycles_per_ms:cpm_f
          (scripted_blame ~arrival ~start ~finish ~s_arr ~s_start ~s_fin))
      script
  in
  check (Alcotest.list cf) "observe returns e2e ms" [ 2.0; 4.0; 11.0 ] e2es;
  check ci "handled" 3 (Latency.handled l);
  (* e2e: 2, 4, 11 ms; queueing: 0, 1, 10; service: 2, 3, 1; gc: 0, 1, 10 *)
  check cf "e2e mean" ((2.0 +. 4.0 +. 11.0) /. 3.0)
    (Histogram.mean (Latency.e2e l));
  check cf "e2e min" 2.0 (Histogram.min (Latency.e2e l));
  check cf "e2e max" 11.0 (Histogram.max (Latency.e2e l));
  check cf "queueing max" 10.0 (Histogram.max (Latency.queueing l));
  check cf "service max" 3.0 (Histogram.max (Latency.service l));
  check cf "gc mean" ((0.0 +. 1.0 +. 10.0) /. 3.0)
    (Histogram.mean (Latency.gc l));
  (* nearest-rank p50 over {2,4,11} is the 2nd sample; the bucketed
     answer is within one bucket width of 4. *)
  let p50 = Histogram.percentile (Latency.e2e l) 50.0 in
  check cb "p50 near 4 ms" true (p50 > 3.4 && p50 < 4.7);
  (* 11 ms > 5 ms SLO; the others are within. *)
  check ci "slo violations" 1 (Latency.slo_violations l);
  (* gc is clamped into [0, e2e] *)
  let gc_ms b =
    let l = Latency.create () in
    ignore (Latency.observe l ~slo_ms:0.0 ~cycles_per_ms:cpm_f b);
    Histogram.max (Latency.gc l)
  in
  check cf "gc clamped to e2e" 1.0
    (gc_ms
       (scripted_blame ~arrival:0 ~start:0 ~finish:cpm ~s_arr:0 ~s_start:0
          ~s_fin:(100 * cpm)));
  check cf "gc clamped to zero" 0.0
    (gc_ms
       (scripted_blame ~arrival:0 ~start:cpm ~finish:(2 * cpm) ~s_arr:cpm
          ~s_start:0 ~s_fin:0))

let test_latency_merge_counters () =
  let a = Latency.create () and b = Latency.create () in
  let cpm_f = float_of_int cpm in
  let obs l ~slo arrival start finish =
    ignore
      (Latency.observe l ~slo_ms:slo ~cycles_per_ms:cpm_f
         (scripted_blame ~arrival ~start ~finish ~s_arr:0 ~s_start:0 ~s_fin:0))
  in
  obs a ~slo:1.0 0 0 cpm;
  obs a ~slo:1.0 0 0 (3 * cpm);
  obs b ~slo:1.0 0 cpm (2 * cpm);
  let m = Latency.merge a b in
  check ci "merged handled" 3 (Latency.handled m);
  check ci "merged violations" 2 (Latency.slo_violations m);
  check ci "merged e2e count" 3 (Histogram.count (Latency.e2e m));
  check cf "merged e2e max" 3.0 (Histogram.max (Latency.e2e m))

(* ----------------------- Histogram.merge property ----------------------- *)

let hist_of samples =
  let h = Histogram.create () in
  Array.iter (Histogram.add h) samples;
  h

let merge_vs_concat_test =
  QCheck.Test.make ~name:"Histogram.merge == histogram of concatenation"
    ~count:200
    QCheck.(
      let sample = list (float_range 0.0 2000.0) in
      pair sample sample)
    (fun (xs, ys) ->
      let a = hist_of (Array.of_list xs) and b = hist_of (Array.of_list ys) in
      let m = Histogram.merge a b in
      let r = hist_of (Array.of_list (xs @ ys)) in
      let buckets h =
        Array.to_list (Histogram.nonzero_buckets h)
        |> List.map (fun (lo, hi, n) -> (lo, hi, n))
      in
      Histogram.count m = Histogram.count r
      && buckets m = buckets r
      && Histogram.min m = Histogram.min r
      && Histogram.max m = Histogram.max r
      && abs_float (Histogram.sum m -. Histogram.sum r) < 1e-6)

(* --------------------------- end-to-end runs --------------------------- *)

let serve ?(rate = 6000.0) ?(queue_cap = 256) ?(workers = 4) ?(timeout_ms = 0.0)
    ?(slo_ms = 0.0) ?throttle ?(heap_mb = 16.0) ?(ms = 600.0) ?(seed = 1)
    ?(gc = Config.default) ?(trace = false) () =
  let vm = Vm.create (Vm.config ~heap_mb ~ncpus:4 ~seed ~gc ~trace ()) in
  let throttle_hi, throttle_lo =
    match throttle with Some (hi, lo) -> (hi, lo) | None -> (0, 0)
  in
  let scfg =
    Server.cfg ~rate_per_s:rate ~queue_cap ~workers ~timeout_ms ~slo_ms
      ~throttle_hi ~throttle_lo ()
  in
  let srv = Server.create scfg vm in
  Vm.run vm ~ms;
  (vm, srv, scfg)

let test_counts_conserved () =
  let _, srv, _ = serve () in
  let t = Server.totals srv in
  check cb "arrived > 0" true (t.Server.arrived > 0);
  check ci "arrived = admitted + shed"
    t.Server.arrived
    (t.Server.admitted + t.Server.shed_full + t.Server.shed_throttled);
  (* every admitted request either completed, timed out, or is still
     queued/in flight at the end *)
  check cb "completed+timedout <= admitted" true
    (t.Server.completed + t.Server.timed_out <= t.Server.admitted);
  check cb "no shedding at moderate load" true
    (t.Server.shed_full = 0 && t.Server.shed_throttled = 0)

let test_queue_bound_shedding () =
  (* A 4-deep queue at a rate far above what one worker can serve: the
     bound must hold and drop-newest shedding must engage. *)
  let _, srv, _ = serve ~rate:20000.0 ~queue_cap:4 ~workers:1 ~ms:300.0 () in
  let t = Server.totals srv in
  check cb "shed_full > 0" true (t.Server.shed_full > 0);
  check cb "max depth within bound" true (t.Server.max_depth <= 4);
  check ci "conservation under shedding"
    t.Server.arrived
    (t.Server.admitted + t.Server.shed_full + t.Server.shed_throttled)

let test_admission_throttle () =
  let _, srv, _ =
    serve ~rate:20000.0 ~queue_cap:64 ~workers:1 ~throttle:(8, 2) ~ms:300.0 ()
  in
  let t = Server.totals srv in
  check cb "throttle shed > 0" true (t.Server.shed_throttled > 0);
  (* the throttle arms at 8, well below the queue bound, so the queue
     never fills *)
  check ci "no queue-full drops behind the throttle" 0 t.Server.shed_full;
  check cb "depth stays near the throttle mark" true (t.Server.max_depth < 16)

let test_timeouts () =
  let _, srv, _ =
    serve ~rate:20000.0 ~queue_cap:256 ~workers:1 ~timeout_ms:1.0 ~ms:300.0 ()
  in
  let t = Server.totals srv in
  check cb "timeouts counted" true (t.Server.timed_out > 0)

let test_decomposition_sums () =
  let _, srv, _ = serve ~rate:8000.0 ~ms:800.0 () in
  let t = Server.totals srv in
  let lat = t.Server.lat in
  check cb "completed requests recorded" true (t.Server.completed > 100);
  check ci "queueing count = e2e count"
    (Histogram.count (Latency.e2e lat))
    (Histogram.count (Latency.queueing lat));
  check ci "service count = e2e count"
    (Histogram.count (Latency.e2e lat))
    (Histogram.count (Latency.service lat));
  (* per-sample e2e = queueing + service, so the sums agree too *)
  let sum h = Histogram.sum h in
  check
    (Alcotest.float 1e-6)
    "sum(e2e) = sum(queueing) + sum(service)"
    (sum (Latency.e2e lat))
    (sum (Latency.queueing lat) +. sum (Latency.service lat));
  (* gc inflation is bounded by end-to-end *)
  check cb "sum(gc) <= sum(e2e)" true
    (sum (Latency.gc lat) <= sum (Latency.e2e lat) +. 1e-9)

let test_events_match_counters () =
  let vm, srv, _ = serve ~rate:20000.0 ~queue_cap:4 ~workers:1 ~ms:300.0
      ~trace:true () in
  let t = Server.totals srv in
  let count code =
    List.length
      (List.filter
         (fun (e : Event.t) -> e.Event.code = code)
         (Obs.events (Vm.obs vm)))
  in
  check ci "req-arrive events = admitted" t.Server.admitted
    (count Event.Req_arrive);
  check ci "req-shed events = sheds"
    (t.Server.shed_full + t.Server.shed_throttled)
    (count Event.Req_shed);
  check ci "req-done events = completed" t.Server.completed
    (count Event.Req_done);
  (* a request picked up right at the end has its start span but no
     done span yet *)
  check ci "req-start spans = completed + in flight"
    (t.Server.completed + Server.in_flight srv)
    (count Event.Req_start)

let test_slo_attainment () =
  let mk ~completed ~viol ~shed ~timed =
    {
      Server.arrived = completed + shed + timed;
      admitted = completed + timed;
      shed_full = shed;
      shed_throttled = 0;
      timed_out = timed;
      completed;
      slo_violations = viol;
      max_depth = 0;
      lat = Latency.create ();
      spans = Span.empty_summary;
    }
  in
  check cf "all good" 1.0
    (Server.slo_attainment (mk ~completed:100 ~viol:0 ~shed:0 ~timed:0));
  check cf "violations count" 0.9
    (Server.slo_attainment (mk ~completed:100 ~viol:10 ~shed:0 ~timed:0));
  check cf "sheds and timeouts count" 0.5
    (Server.slo_attainment (mk ~completed:50 ~viol:0 ~shed:25 ~timed:25));
  check cf "empty run attains" 1.0
    (Server.slo_attainment (mk ~completed:0 ~viol:0 ~shed:0 ~timed:0))

let test_stw_tail_exceeds_cgc () =
  (* The tentpole claim at test scale: same seed, same offered load,
     STW's p99.9 end-to-end latency far above CGC's. *)
  let p999 gc =
    let _, srv, _ = serve ~rate:6000.0 ~heap_mb:16.0 ~ms:1000.0 ~gc () in
    Histogram.percentile (Latency.e2e (Server.totals srv).Server.lat) 99.9
  in
  let stw = p999 Config.stw and cgc = p999 Config.default in
  check cb
    (Printf.sprintf "stw p99.9 (%.2f) > 2x cgc p99.9 (%.2f)" stw cgc)
    true
    (stw > 2.0 *. cgc)

let test_reset_discards_warmup () =
  let vm = Vm.create (Vm.config ~heap_mb:16.0 ~ncpus:4 ~seed:1 ()) in
  let srv = Server.create (Server.cfg ~rate_per_s:6000.0 ()) vm in
  Vm.run_measured vm ~warmup_ms:300.0 ~ms:300.0;
  let t = Server.totals srv in
  (* ~300 ms at 6000/s: the warmup's ~1800 arrivals must be gone *)
  check cb "warmup arrivals discarded" true
    (t.Server.arrived > 1000 && t.Server.arrived < 2600)

(* -------------------------- report / schema -------------------------- *)

let report_of_run () =
  let _, srv, scfg = serve ~rate:6000.0 ~slo_ms:50.0 ~ms:400.0 () in
  Report.to_json scfg ~ran_ms:400.0 (Server.totals srv)

let test_schema_roundtrip () =
  let j = report_of_run () in
  let s = Json.to_string ~pretty:true j in
  (match Report.validate s with
  | Error e -> Alcotest.failf "validate rejected its own report: %s" e
  | Ok j' ->
      check Alcotest.string "re-serialises to the same bytes" s
        (Json.to_string ~pretty:true j'));
  (* compact form round-trips too *)
  let c = Json.to_string j in
  (match Json.parse c with
  | Error e -> Alcotest.failf "compact parse failed: %s" e
  | Ok j' -> check Alcotest.string "compact round-trip" c (Json.to_string j'));
  match Report.validate "{\"schema\":\"cgcsim-bench-v1\"}" with
  | Ok _ -> Alcotest.fail "accepted a foreign schema"
  | Error e -> check cb "names the mismatch" true (e <> "")

let test_report_fields () =
  let j = report_of_run () in
  check cb "schema tag" true
    (Json.member "schema" j = Some (Json.Str "cgcsim-server-v2"));
  List.iter
    (fun k -> check cb k true (Json.member k j <> None))
    [ "ratePerS"; "arrival"; "counts"; "latencyMs"; "sloAttainment";
      "completedPerS"; "blame"; "tails"; "exemplars" ];
  match Json.member "latencyMs" j with
  | Some lat ->
      List.iter
        (fun k -> check cb k true (Json.member k lat <> None))
        [ "e2e"; "queueing"; "service"; "gcInflation" ]
  | None -> Alcotest.fail "latencyMs missing"

let test_report_determinism () =
  let run () =
    let _, srv, scfg =
      serve ~rate:6000.0 ~slo_ms:50.0 ~ms:400.0 ~trace:true ()
    in
    Json.to_string ~pretty:true
      (Report.to_json scfg ~ran_ms:400.0 (Server.totals srv))
  in
  check Alcotest.string "same seed, byte-identical report" (run ()) (run ())

let test_json_parse_rejects () =
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "parsed %S" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "{\"a\":1}x"; "\"unterminated" ]

(* --------------------------- causal spans --------------------------- *)

let test_blame_conservation () =
  (* The runtime asserts the identity per request; here the aggregate
     must hold too: summed blame components = summed e2e cycles, with
     one span per completed request. *)
  let _, srv, _ = serve ~rate:8000.0 ~ms:800.0 () in
  let t = Server.totals srv in
  let sp = t.Server.spans in
  check ci "one span per completed request" t.Server.completed sp.Span.count;
  check ci "aggregate blame sums to aggregate e2e" sp.Span.sum_e2e
    (Span.blame_total sp.Span.sum);
  List.iter
    (fun (s : Span.t) ->
      check ci
        (Printf.sprintf "rid %d blame sums to e2e" s.Span.route.Span.rid)
        (Span.e2e_cycles s)
        (Span.blame_total s.Span.blame))
    sp.Span.worst

let test_worst_spans_ordered () =
  let _, srv, _ = serve ~rate:8000.0 ~ms:800.0 () in
  let sp = (Server.totals srv).Server.spans in
  check cb "worst list bounded" true (List.length sp.Span.worst <= 32);
  let rec desc = function
    | a :: (b :: _ as rest) ->
        (Span.e2e_cycles a > Span.e2e_cycles b
        || Span.e2e_cycles a = Span.e2e_cycles b
           && a.Span.route.Span.rid < b.Span.route.Span.rid)
        && desc rest
    | _ -> true
  in
  check cb "worst-first, rid tie-break" true (desc sp.Span.worst)

(* The worst-N list as [Span.record] kept it before it cached its
   cutoff: walk to the [worst_k]-th entry on every span once full. *)
let reference_worst spans =
  let rec insert s = function
    | [] -> [ s ]
    | x :: rest as l -> if Span.worse s x < 0 then s :: l else x :: insert s rest
  in
  let rec drop_last = function
    | [] | [ _ ] -> []
    | x :: rest -> x :: drop_last rest
  in
  List.fold_left
    (fun worst s ->
      if List.length worst < Span.worst_k then insert s worst
      else if Span.worse s (List.nth worst (Span.worst_k - 1)) < 0 then
        drop_last (insert s worst)
      else worst)
    [] spans

let span_of ~rid ~e2e =
  {
    Span.route = Span.local_route rid;
    enqueue = 0;
    start = 0;
    finish = e2e;
    blame = { Span.zero_blame with Span.service = e2e };
  }

let worst_cutoff_test =
  QCheck.Test.make ~name:"worst list with a cached cutoff == list walk"
    ~count:200
    QCheck.(
      pair (int_range 1 40)
        (list_of_size (Gen.int_range 0 300) (pair (int_range 0 1000) small_nat)))
    (fun (spread, draws) ->
      (* Few distinct end-to-end times, so ties are common; request ids
         are unique but drawn out of order. *)
      let spans =
        List.mapi
          (fun i (perm, e) -> span_of ~rid:((perm * 1000) + i) ~e2e:(e mod spread))
          draws
      in
      let c = Span.create ~cycles_per_ms:1000.0 ~seed:1 in
      (* A cleared collector must start over, cutoff included. *)
      List.iter (Span.record c) spans;
      Span.clear c;
      List.iter (Span.record c) spans;
      let rids l = List.map (fun s -> s.Span.route.Span.rid) l in
      rids (Span.summary c).Span.worst = rids (reference_worst spans))

let test_exemplar_reservoir_bounds () =
  let _, srv, _ = serve ~rate:8000.0 ~ms:800.0 () in
  let sp = (Server.totals srv).Server.spans in
  let per_decade = Array.make 8 0 in
  List.iter
    (fun (d, s) ->
      check cb "decade in range" true (d >= 0 && d < 6);
      per_decade.(d) <- per_decade.(d) + 1;
      check ci "exemplar satisfies the identity" (Span.e2e_cycles s)
        (Span.blame_total s.Span.blame))
    sp.Span.exemplars;
  Array.iter (fun n -> check cb "at most R per decade" true (n <= 4))
    per_decade

let test_span_merge_identity () =
  (* Merging two summaries keeps the identity and adds the counts. *)
  let run seed =
    let _, srv, _ = serve ~rate:6000.0 ~ms:400.0 ~seed () in
    (Server.totals srv).Server.spans
  in
  let a = run 1 and b = run 2 in
  let m = Span.merge a b in
  check ci "merged count adds" (a.Span.count + b.Span.count) m.Span.count;
  check ci "merged sums add" (a.Span.sum_e2e + b.Span.sum_e2e) m.Span.sum_e2e;
  check ci "merged blame conserves" m.Span.sum_e2e
    (Span.blame_total m.Span.sum);
  check cb "merged worst bounded" true (List.length m.Span.worst <= 32)

(* --------------------- delays and degradation ---------------------- *)

let test_scripted_delay_stream () =
  let a = Arrival.scripted ~delays:[| 3; 7 |] [| 5; 9 |] in
  check ci "first arrival" 5 (Arrival.next a);
  check ci "its delay" 3 (Arrival.last_delay a);
  check ci "second arrival" 9 (Arrival.next a);
  check ci "its delay" 7 (Arrival.last_delay a);
  check ci "exhausted" max_int (Arrival.next a);
  let plain = Arrival.scripted [| 5 |] in
  ignore (Arrival.next plain);
  check ci "no delays means zero" 0 (Arrival.last_delay plain);
  check cb "delay length mismatch rejected" true
    (match Arrival.scripted ~delays:[| 1 |] [| 5; 9 |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check cb "negative delay rejected" true
    (match Arrival.scripted ~delays:[| -1 |] [| 5 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let scripted_run ?delays ?degrade ts =
  let vm = Vm.create (Vm.config ~heap_mb:16.0 ~ncpus:4 ~seed:1 ()) in
  let scfg = Server.cfg ~rate_per_s:1000.0 ~queue_cap:256 ~workers:4 () in
  let srv =
    Server.create ~arrivals:(Arrival.scripted ?delays ts) ?degrade scfg vm
  in
  Vm.run vm ~ms:200.0;
  Server.totals srv

let test_delays_backdate_into_latency () =
  (* A retry's backoff happened before the shard ever saw the request;
     the server backdates the arrival so the e2e histogram carries it. *)
  let ts = Array.init 50 (fun i -> (i + 1) * cpm / 2) in
  let base = scripted_run ts in
  let delayed = scripted_run ~delays:(Array.make 50 (2 * cpm)) ts in
  check ci "same arrivals consumed" base.Server.arrived
    delayed.Server.arrived;
  check ci "same completions" base.Server.completed delayed.Server.completed;
  let m (t : Server.totals) = Histogram.mean (Latency.e2e t.Server.lat) in
  let dm = m delayed -. m base in
  check cb "2 ms pre-delay lands in e2e latency" true
    (dm > 1.5 && dm < 2.5);
  let q (t : Server.totals) =
    Histogram.mean (Latency.queueing t.Server.lat)
  in
  check cb "pre-delay counts as queueing, not service" true
    (q delayed -. q base > 1.5)

let test_degrade_inflates_service () =
  let ts = Array.init 50 (fun i -> (i + 1) * cpm / 2) in
  let base = scripted_run ts in
  let slow = scripted_run ~degrade:(0, max_int, 2.0) ts in
  let sv (t : Server.totals) =
    Histogram.mean (Latency.service t.Server.lat)
  in
  check ci "nothing shed under brownout" base.Server.completed
    slow.Server.completed;
  check cb "service time roughly doubles" true
    (sv slow > 1.7 *. sv base && sv slow < 2.5 *. sv base)

let () =
  Alcotest.run "server"
    [
      ( "arrival",
        [
          Alcotest.test_case "constant spacing" `Quick test_arrival_constant;
          Alcotest.test_case "deterministic" `Quick test_arrival_deterministic;
          Alcotest.test_case "average rates" `Quick test_arrival_rates_average;
          Alcotest.test_case "bursty modulation" `Quick
            test_arrival_bursty_modulates;
        ] );
      ( "latency",
        [
          Alcotest.test_case "scripted hand-computed" `Quick
            test_scripted_latencies;
          Alcotest.test_case "merge counters" `Quick test_latency_merge_counters;
          QCheck_alcotest.to_alcotest merge_vs_concat_test;
        ] );
      ( "server",
        [
          Alcotest.test_case "counts conserved" `Quick test_counts_conserved;
          Alcotest.test_case "queue-bound shedding" `Quick
            test_queue_bound_shedding;
          Alcotest.test_case "admission throttle" `Quick test_admission_throttle;
          Alcotest.test_case "timeouts" `Quick test_timeouts;
          Alcotest.test_case "decomposition sums to e2e" `Quick
            test_decomposition_sums;
          Alcotest.test_case "events match counters" `Quick
            test_events_match_counters;
          Alcotest.test_case "slo attainment" `Quick test_slo_attainment;
          Alcotest.test_case "stw tail exceeds cgc" `Quick
            test_stw_tail_exceeds_cgc;
          Alcotest.test_case "reset discards warmup" `Quick
            test_reset_discards_warmup;
        ] );
      ( "spans",
        [
          Alcotest.test_case "blame conservation" `Quick
            test_blame_conservation;
          Alcotest.test_case "worst spans ordered" `Quick
            test_worst_spans_ordered;
          QCheck_alcotest.to_alcotest worst_cutoff_test;
          Alcotest.test_case "exemplar reservoir bounds" `Quick
            test_exemplar_reservoir_bounds;
          Alcotest.test_case "merge keeps the identity" `Quick
            test_span_merge_identity;
        ] );
      ( "chaos-support",
        [
          Alcotest.test_case "scripted delay stream" `Quick
            test_scripted_delay_stream;
          Alcotest.test_case "delays backdate into latency" `Quick
            test_delays_backdate_into_latency;
          Alcotest.test_case "degrade inflates service" `Quick
            test_degrade_inflates_service;
        ] );
      ( "report",
        [
          Alcotest.test_case "schema round-trip" `Quick test_schema_roundtrip;
          Alcotest.test_case "fields" `Quick test_report_fields;
          Alcotest.test_case "byte-identical" `Quick test_report_determinism;
          Alcotest.test_case "parse rejects malformed" `Quick
            test_json_parse_rejects;
        ] );
    ]
