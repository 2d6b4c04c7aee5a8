(* Tests for the cluster layer (cgc_cluster): the domain batches
   (exactly-once, order-identical results at every size, exception
   propagation at every size, par_map's item order), the three routing
   policies and the hash ring's failover monotonicity, shard/fleet
   determinism across pool sizes (byte-identical traces and report,
   chaos scenarios included), the fleet degradation ladder's exact
   request conservation and Fleet_unavailable, the per-request blame
   conservation identity across every chaos scenario, and the
   cgcsim-cluster-v3 schema round-trip. *)

module Json = Cgc_prof.Json
module Dpool = Cgc_cluster.Dpool
module Balancer = Cgc_cluster.Balancer
module Cluster = Cgc_cluster.Cluster
module Shard = Cgc_cluster.Shard
module Cluster_report = Cgc_cluster.Report
module Server = Cgc_server.Server
module Span = Cgc_server.Span
module Arrival = Cgc_server.Arrival
module Prng = Cgc_util.Prng
module Common = Cgc_experiments.Common
module Cluster_fault = Cgc_fault.Cluster_fault

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cpm = 550_000 (* Cost.default.cycles_per_ms *)

(* ------------------------------ dpool ------------------------------ *)

(* Run [f] with batches at [domains] domains, back to 1 afterwards. *)
let with_size domains f =
  Dpool.set_size domains;
  Fun.protect ~finally:(fun () -> Dpool.set_size 1) f

(* A batch of jobs [f 0 .. f (n-1)] whose results are discarded. *)
let run ~n f = ignore (Dpool.map f (Array.init n Fun.id))

let test_pool_exactly_once () =
  with_size 4 (fun () ->
      let n = 1000 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      run ~n (fun i -> Atomic.incr hits.(i));
      Array.iteri
        (fun i c ->
          if Atomic.get c <> 1 then
            Alcotest.failf "job %d ran %d times" i (Atomic.get c))
        hits)

let test_pool_exception () =
  with_size 3 (fun () ->
      let ran = Array.init 20 (fun _ -> Atomic.make 0) in
      (match
         run ~n:20 (fun i ->
             Atomic.incr ran.(i);
             if i = 7 then failwith "job 7")
       with
      | () -> Alcotest.fail "expected the job's exception"
      | exception Failure msg -> check Alcotest.string "message" "job 7" msg);
      (* every other job still ran *)
      Array.iter (fun c -> check ci "ran once" 1 (Atomic.get c)) ran)

exception Job_failed of int

let qcheck_pool_contract =
  (* Jobs of uneven cost, some failing, at every size: each job runs
     exactly once, map is Array.map, and the re-raised exception is a
     failing job's — the lowest failing index's on a serial batch. *)
  let job =
    QCheck.(
      pair (int_range 0 5000)
        (make ~print:string_of_bool Gen.(frequencyl [ (7, false); (1, true) ])))
  in
  QCheck.Test.make
    ~name:"dpool: exactly once, map order, exception contract at any size"
    ~count:100
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(0 -- 64) job))
    (fun (domains, jobs) ->
      let jobs = Array.of_list jobs in
      let n = Array.length jobs in
      let spin i =
        let r = ref i in
        for k = 1 to fst jobs.(i) do
          r := (!r * 31) + k
        done;
        Sys.opaque_identity !r
      in
      let failing =
        List.filter (fun i -> snd jobs.(i)) (List.init n Fun.id)
      in
      let ran = Array.init n (fun _ -> Atomic.make 0) in
      with_size domains (fun () ->
          let raised =
            match
              run ~n (fun i ->
                  Atomic.incr ran.(i);
                  ignore (spin i);
                  if snd jobs.(i) then raise (Job_failed i))
            with
            | () -> None
            | exception Job_failed i -> Some i
          in
          let idx = Array.init n Fun.id in
          Array.for_all (fun c -> Atomic.get c = 1) ran
          && (match (raised, failing) with
             | None, [] -> true
             | Some i, lowest :: _ ->
                 List.mem i failing && (domains > 1 || i = lowest)
             | _ -> false)
          && Dpool.map spin idx = Array.map spin idx))

let qcheck_pool_map_matches_serial =
  QCheck.Test.make
    ~name:"dpool: map result order-identical to serial at any size"
    ~count:60
    QCheck.(triple (int_range 1 8) (int_range 0 64) small_int)
    (fun (domains, n, salt) ->
      let items = Array.init n (fun i -> i + salt) in
      let f x = (x * x) + (x lxor 0x55) in
      with_size domains (fun () -> Dpool.map f items) = Array.map f items)

let qcheck_par_map_matches_serial =
  (* Common.par_map runs on Dpool; output order (and therefore every
     experiment table) must not depend on the batch size. *)
  QCheck.Test.make
    ~name:"par_map: order-identical to List.map at any --jobs" ~count:40
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(0 -- 40) small_int))
    (fun (jobs, items) ->
      let f x = (x * 3) + 1 in
      with_size jobs (fun () -> Common.par_map items f) = List.map f items)

let test_pool_serial_exception_first_in_index_order () =
  (* The serial path must match the parallel contract: every job runs,
     the first exception (index order) is the one re-raised. *)
  with_size 1 (fun () ->
      let ran = Array.make 10 false in
      (match
         run ~n:10 (fun i ->
             ran.(i) <- true;
             if i = 3 then failwith "job 3";
             if i = 7 then failwith "job 7")
       with
      | () -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
          check Alcotest.string "first failing index wins" "job 3" msg);
      Array.iteri
        (fun i r ->
          check cb (Printf.sprintf "job %d still ran" i) true r)
        ran)

let test_pool_usable_after_exception () =
  List.iter
    (fun domains ->
      with_size domains (fun () ->
          (match run ~n:4 (fun i -> if i = 2 then failwith "boom") with
          | () -> Alcotest.fail "expected an exception"
          | exception Failure _ -> ());
          let got = Dpool.map (fun x -> x * 2) [| 1; 2; 3 |] in
          check (Alcotest.array ci)
            (Printf.sprintf "size %d reusable after exception" domains)
            [| 2; 4; 6 |] got))
    [ 1; 4 ]

let test_pool_nested_inline_after_exception () =
  with_size 4 (fun () ->
      (match run ~n:8 (fun i -> if i = 0 then failwith "boom") with
      | () -> Alcotest.fail "expected an exception"
      | exception Failure _ -> ());
      let outer =
        Dpool.map
          (fun i ->
            let inner = Dpool.map (fun j -> i * j) [| 1; 2 |] in
            inner.(0) + inner.(1))
          [| 3; 4 |]
      in
      check (Alcotest.array ci) "nested map inline after exception"
        [| 9; 12 |] outer)

let test_pool_nested_runs_inline () =
  with_size 4 (fun () ->
      (* An inner map issued from inside a batch job must complete and
         produce the same values. *)
      let outer =
        Dpool.map
          (fun i ->
            let inner = Dpool.map (fun j -> i + j) [| 1; 2; 3 |] in
            Array.fold_left ( + ) 0 inner)
          [| 10; 20 |]
      in
      check (Alcotest.array ci) "nested values" [| 36; 66 |] outer)

(* ----------------------------- balancer ----------------------------- *)

(* Place each arrival of [ts] through a fresh router with every shard
   live, as the cluster front end does; consistent-hash session keys come
   from [rng]. *)
let route policy ?(nshards = 4) ?(rng = Prng.create 9) ts =
  let r =
    Balancer.router policy ~nshards ~workers:4 ~service_est_ms:0.12
      ~cycles_per_ms:cpm
  in
  let avoid = Array.make nshards false in
  Array.map
    (fun now ->
      let key = Balancer.mix64 (Prng.next rng) in
      let s = Option.get (Balancer.pick r ~now ~key ~avoid) in
      Balancer.note_routed r s;
      s)
    ts

let test_balancer_round_robin () =
  let ts = Array.init 10 (fun i -> i * cpm) in
  check (Alcotest.array ci) "i mod n"
    [| 0; 1; 2; 3; 0; 1; 2; 3; 0; 1 |]
    (route Balancer.Round_robin ts)

let test_balancer_least_queue_low_load () =
  (* Widely spaced arrivals: every modelled queue drains to zero, so
     the round-robin tie-break must spread them uniformly. *)
  let ts = Array.init 12 (fun i -> i * cpm) in
  check (Alcotest.array ci) "ties spread round-robin"
    [| 0; 1; 2; 3; 0; 1; 2; 3; 0; 1; 2; 3 |]
    (route Balancer.Least_queue ts)

let test_balancer_least_queue_balances_burst () =
  (* Simultaneous arrivals never drain between assignments: join-the-
     shortest-queue must keep the modelled depths within one of each
     other. *)
  let assign = route Balancer.Least_queue (Array.make 1000 0) in
  let counts = Array.make 4 0 in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) assign;
  Array.iter (fun c -> check ci "even split" 250 c) counts

let test_balancer_hash_properties () =
  let ts = Array.init 4000 (fun i -> i * 1000) in
  let a1 = route Balancer.Consistent_hash ~rng:(Prng.create 9) ts in
  let a2 = route Balancer.Consistent_hash ~rng:(Prng.create 9) ts in
  check cb "same key stream, same assignment" true (a1 = a2);
  let a3 = route Balancer.Consistent_hash ~rng:(Prng.create 10) ts in
  check cb "different key stream differs" true (a1 <> a3);
  let counts = Array.make 4 0 in
  Array.iter
    (fun s ->
      check cb "in range" true (s >= 0 && s < 4);
      counts.(s) <- counts.(s) + 1)
    a1;
  Array.iter
    (fun c ->
      (* 64 vnodes per shard keeps the skew bounded: no shard owns less
         than ~5% or more than ~60% of a uniform key stream. *)
      check cb "no starved shard" true (c > 200);
      check cb "no hot shard owning most keys" true (c < 2400))
    counts

let qcheck_ring_remaps_only_failed_shard =
  (* Consistent hashing's failover contract: taking one shard out moves
     only the keys that shard owned (nothing else re-shuffles), and
     putting it back restores the exact prior assignment. *)
  QCheck.Test.make
    ~name:"hash ring: removing a shard remaps only its keys; re-add restores"
    ~count:60
    QCheck.(triple (int_range 2 10) (int_range 0 9) small_int)
    (fun (nshards, victim, salt) ->
      QCheck.assume (victim < nshards);
      let all = Array.make nshards true in
      let without = Array.init nshards (fun k -> k <> victim) in
      let ring_all = Balancer.ring_points ~nshards ~live:all in
      let ring_cut = Balancer.ring_points ~nshards ~live:without in
      let ring_back = Balancer.ring_points ~nshards ~live:all in
      let keys =
        Array.init 400 (fun i ->
            Balancer.mix64 (Int64.of_int ((i * 7919) + salt + 1)))
      in
      Array.for_all
        (fun key ->
          let before = Balancer.ring_lookup ring_all key in
          let after = Balancer.ring_lookup ring_cut key in
          after <> victim
          && (before = victim || after = before)
          && Balancer.ring_lookup ring_back key = before)
        keys)

(* ------------------------- shard determinism ------------------------ *)

let small_cfg ?(trace = false) () =
  Cluster.cfg ~shards:3 ~policy:Balancer.Least_queue ~rate_per_s:6000.0
    ~slo_ms:50.0 ~heap_mb:16.0 ~ms:300.0 ~trace ~trace_ring:(1 lsl 17) ()

let test_cluster_determinism_across_pool_sizes () =
  let run domains =
    with_size domains (fun () -> Cluster.run (small_cfg ~trace:true ()))
  in
  let r1 = run 1 and r8 = run 8 in
  check Alcotest.string "fleet report byte-identical at 1 vs 8 domains"
    (Json.to_string ~pretty:true (Cluster_report.to_json r1))
    (Json.to_string ~pretty:true (Cluster_report.to_json r8));
  Array.iteri
    (fun k (s1 : Shard.result) ->
      let s8 = r8.Cluster.shards.(k) in
      check ci "dropped events" 0 s1.Shard.dropped;
      match (s1.Shard.trace, s8.Shard.trace) with
      | Some t1, Some t8 ->
          check cb
            (Printf.sprintf "shard %d trace byte-identical" k)
            true (t1 = t8)
      | _ -> Alcotest.fail "expected traces on both runs")
    r1.Cluster.shards

let test_cluster_conservation () =
  let r = Cluster.run (small_cfg ()) in
  let tot = Cluster.fleet_totals r in
  let routed =
    Array.fold_left (fun acc s -> acc + s.Shard.routed) 0 r.Cluster.shards
  in
  check cb "every arrival routed to some shard" true (routed > 0);
  (* A shard's server sees exactly the arrivals it was routed, except
     possibly ones scripted at the very end of the horizon. *)
  check cb "arrived <= routed" true (tot.Server.arrived <= routed);
  check cb "arrived nearly routed" true
    (routed - tot.Server.arrived <= 3 * r.Cluster.cfg.Cluster.shards);
  check ci "admitted = arrived - shed"
    (tot.Server.arrived - tot.Server.shed_full - tot.Server.shed_throttled)
    tot.Server.admitted;
  check cb "attainment in [0,1]" true
    (let a = Cluster.slo_attainment r in
     a >= 0.0 && a <= 1.0)

let test_cluster_policies_share_arrival_stream () =
  (* The arrival stream is drawn before routing: every policy must see
     the same fleet arrival count. *)
  let arrived policy =
    let cfg =
      Cluster.cfg ~shards:2 ~policy ~rate_per_s:4000.0 ~heap_mb:16.0
        ~ms:200.0 ()
    in
    Array.fold_left
      (fun acc (s : Shard.result) -> acc + s.Shard.routed)
      0 (Cluster.run cfg).Cluster.shards
  in
  let rr = arrived Balancer.Round_robin in
  check ci "least-queue same stream" rr (arrived Balancer.Least_queue);
  check ci "consistent-hash same stream" rr
    (arrived Balancer.Consistent_hash)

(* ------------------------------- chaos ------------------------------ *)

let chaos_cfg ?(trace = false) ?chaos () =
  Cluster.cfg ~shards:3 ~policy:Balancer.Least_queue ~rate_per_s:6000.0
    ~slo_ms:50.0 ~heap_mb:16.0 ~ms:300.0 ~trace ~trace_ring:(1 lsl 17)
    ?chaos ()

let test_chaos_determinism_across_pool_sizes () =
  List.iter
    (fun sc ->
      let name = Cluster_fault.to_name sc in
      let run domains =
        with_size domains (fun () ->
            Cluster.run (chaos_cfg ~trace:true ~chaos:sc ()))
      in
      let r1 = run 1 and r8 = run 8 in
      check Alcotest.string
        (name ^ ": fleet report byte-identical at 1 vs 8 domains")
        (Json.to_string ~pretty:true (Cluster_report.to_json r1))
        (Json.to_string ~pretty:true (Cluster_report.to_json r8));
      check ci (name ^ ": same incarnation count")
        (Array.length r1.Cluster.shards)
        (Array.length r8.Cluster.shards);
      Array.iteri
        (fun k (s1 : Shard.result) ->
          let s8 = r8.Cluster.shards.(k) in
          match (s1.Shard.trace, s8.Shard.trace) with
          | Some t1, Some t8 ->
              check cb
                (Printf.sprintf "%s: shard %d.r%d trace byte-identical" name
                   s1.Shard.id s1.Shard.incarnation)
                true (t1 = t8)
          | _ -> Alcotest.fail "expected traces on both runs")
        r1.Cluster.shards)
    Cluster_fault.all

let test_chaos_exact_conservation () =
  (* The ladder's books must balance exactly under every scenario:
     drawn = routed + fleet-shed + unroutable, and every routed request
     is accounted for down to the incarnation that held it. *)
  List.iter
    (fun chaos ->
      let name =
        match chaos with
        | None -> "none"
        | Some sc -> Cluster_fault.to_name sc
      in
      let r = Cluster.run (chaos_cfg ?chaos ()) in
      let tot = Cluster.fleet_totals r in
      let c = r.Cluster.chaos in
      let routed =
        Array.fold_left
          (fun acc s -> acc + s.Shard.routed)
          0 r.Cluster.shards
      in
      check ci
        (name ^ ": drawn = routed + fleet-shed + unroutable")
        c.Cluster.drawn
        (routed + c.Cluster.shed_fleet + c.Cluster.lost_unroutable);
      check ci
        (name ^ ": arrived = routed - unarrived")
        tot.Server.arrived
        (routed - Cluster.unarrived r);
      check ci
        (name ^ ": admitted = arrived - sheds")
        tot.Server.admitted
        (tot.Server.arrived - tot.Server.shed_full
       - tot.Server.shed_throttled);
      let unfinished =
        Array.fold_left
          (fun acc s -> acc + s.Shard.unfinished)
          0 r.Cluster.shards
      in
      check ci
        (name ^ ": admitted = completed + timed-out + unfinished")
        tot.Server.admitted
        (tot.Server.completed + tot.Server.timed_out + unfinished);
      check cb (name ^ ": unarrived non-negative") true
        (Cluster.unarrived r >= 0);
      check cb (name ^ ": lost-in-crash non-negative") true
        (Cluster.lost_crashed r >= 0);
      check cb (name ^ ": availability in [0,1]") true
        (let a = Cluster.availability r in
         a >= 0.0 && a <= 1.0))
    (None :: List.map Option.some Cluster_fault.all)

let test_chaos_epoch_digests () =
  let r0 = Cluster.run (chaos_cfg ()) in
  let d0 = r0.Cluster.chaos.Cluster.digests in
  check cb "digests cover the run" true (Array.length d0 > 0);
  check cb "chaos off: routing table never changes" true
    (Array.for_all (fun d -> d = d0.(0)) d0);
  check cb "chaos off: no time-to-recover" true
    (r0.Cluster.chaos.Cluster.ttr_ms = None);
  let r =
    Cluster.run (chaos_cfg ~chaos:Cluster_fault.Shard_restart ())
  in
  let c = r.Cluster.chaos in
  let distinct =
    List.length (List.sort_uniq compare (Array.to_list c.Cluster.digests))
  in
  check cb "restart: routing table changes" true (distinct >= 2);
  check cb "restart: live count dips" true
    (Array.exists
       (fun l -> l < r.Cluster.cfg.Cluster.shards)
       c.Cluster.live_epochs);
  check cb "restart: recovers (ttr present)" true (c.Cluster.ttr_ms <> None)

let qcheck_blame_conservation_under_chaos =
  (* The tentpole identity, adversarially: for every chaos scenario and
     a sampled (seed, rate), the fleet-merged span summary must balance
     exactly — blame components sum to e2e in aggregate and for every
     retained span, with one span per completed request.  (The runtime
     additionally asserts the identity per request as each completes.) *)
  QCheck.Test.make ~name:"blame conservation under every chaos scenario"
    ~count:12
    QCheck.(
      pair (int_range 1 1000)
        (pair (int_range 0 (List.length Cluster_fault.all))
           (int_range 4 8)))
    (fun (seed, (sc_idx, rate_k)) ->
      let chaos =
        if sc_idx = 0 then None
        else List.nth_opt Cluster_fault.all (sc_idx - 1)
      in
      let cfg =
        Cluster.cfg ~shards:3 ~policy:Balancer.Least_queue
          ~rate_per_s:(float_of_int (rate_k * 1000))
          ~slo_ms:50.0 ~heap_mb:16.0 ~ms:250.0 ~seed ?chaos ()
      in
      let r = Cluster.run cfg in
      let tot = Cluster.fleet_totals r in
      let sp = tot.Server.spans in
      sp.Span.count = tot.Server.completed
      && Span.blame_total sp.Span.sum = sp.Span.sum_e2e
      && List.for_all
           (fun (s : Span.t) ->
             Span.blame_total s.Span.blame = Span.e2e_cycles s)
           sp.Span.worst
      && List.for_all
           (fun ((_, s) : int * Span.t) ->
             Span.blame_total s.Span.blame = Span.e2e_cycles s)
           sp.Span.exemplars)

let test_chaos_routes_annotated () =
  (* Under shard-restart the ladder retries/redirects; the surviving
     spans must carry that history: some worst/exemplar span shows a
     retry or a redirect, and every epoch stamp is within range. *)
  let r = Cluster.run (chaos_cfg ~chaos:Cluster_fault.Shard_restart ()) in
  let sp = (Cluster.fleet_totals r).Server.spans in
  let spans = sp.Span.worst @ List.map snd sp.Span.exemplars in
  check cb "spans retained" true (spans <> []);
  let epochs = Array.length r.Cluster.chaos.Cluster.live_epochs in
  List.iter
    (fun (s : Span.t) ->
      let ro = s.Span.route in
      check cb "shard in range" true
        (ro.Span.shard >= 0 && ro.Span.shard < r.Cluster.cfg.Cluster.shards);
      check cb "epoch in range" true
        (ro.Span.epoch >= 0 && ro.Span.epoch < max 1 epochs);
      check cb "attempts non-negative" true (ro.Span.attempts >= 0))
    spans;
  check cb "some span rerouted or retried" true
    (List.exists
       (fun (s : Span.t) ->
         s.Span.route.Span.attempts > 0
         || s.Span.route.Span.shard <> s.Span.route.Span.first)
       spans)

let test_fleet_unavailable_raises () =
  (* A single-shard fleet whose only shard crashes has nowhere to
     reroute: the ladder must bottom out in the typed failure. *)
  let cfg =
    Cluster.cfg ~shards:1 ~rate_per_s:4000.0 ~heap_mb:16.0 ~ms:300.0
      ~chaos:Cluster_fault.Shard_crash ~give_up:10 ()
  in
  match Cluster.run cfg with
  | _ -> Alcotest.fail "expected Fleet_unavailable"
  | exception Cluster.Fleet_unavailable u ->
      check Alcotest.string "scenario named" "shard-crash"
        u.Cluster.scenario;
      check ci "fleet size recorded" 1 u.Cluster.of_shards;
      check cb "lost at least the give-up budget" true (u.Cluster.lost >= 10);
      check cb "diagnostic renders" true
        (String.length (Cluster.unavailable_to_string u) > 0)

(* ------------------------------ report ------------------------------ *)

let test_report_schema_roundtrip () =
  let r = Cluster.run (small_cfg ()) in
  let s = Json.to_string ~pretty:true (Cluster_report.to_json r) in
  (match Cluster_report.validate s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "round-trip rejected: %s" e);
  (match Cluster_report.validate "{}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing schema accepted");
  (match Cluster_report.validate "{\"schema\": \"cgcsim-server-v1\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong schema accepted");
  (* corrupting one blame component must break the conservation check *)
  let key = "\"serviceCycles\": " in
  let klen = String.length key in
  let corrupt =
    let rec find i =
      if i + klen > String.length s then None
      else if String.sub s i klen = key then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> s
    | Some i ->
        let j = ref (i + klen) in
        while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do
          incr j
        done;
        String.sub s 0 (i + klen)
        ^ "1234567891"
        ^ String.sub s !j (String.length s - !j)
  in
  check cb "report carries a serviceCycles field" true (corrupt <> s);
  match Cluster_report.validate corrupt with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "broken conservation accepted"

let test_report_phenomena_counts () =
  let r = Cluster.run (small_cfg ()) in
  let ph = Cluster_report.phenomena r in
  check cb "bins cover the run" true (ph.Cluster_report.bins >= 30);
  check cb "co-stopped bounded by shards" true
    (ph.Cluster_report.co_max_stopped <= r.Cluster.cfg.Cluster.shards);
  let tot = Cluster.fleet_totals r in
  check ci "binned sheds equal counter"
    (tot.Server.shed_full + tot.Server.shed_throttled)
    ph.Cluster_report.shed_total

(* ----------------------------- scripted ----------------------------- *)

let test_scripted_arrivals () =
  let a = Arrival.scripted [| 5; 5; 9 |] in
  check ci "first" 5 (Arrival.next a);
  check ci "equal timestamps fine" 5 (Arrival.next a);
  check ci "third" 9 (Arrival.next a);
  check ci "exhausted" max_int (Arrival.next a);
  check cb "decreasing rejected" true
    (match Arrival.scripted [| 3; 2 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "cluster"
    [
      ( "dpool",
        [
          Alcotest.test_case "exactly once" `Quick test_pool_exactly_once;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
          Alcotest.test_case "serial exception: first in index order"
            `Quick test_pool_serial_exception_first_in_index_order;
          Alcotest.test_case "usable after exception" `Quick
            test_pool_usable_after_exception;
          Alcotest.test_case "nested inline after exception" `Quick
            test_pool_nested_inline_after_exception;
          Alcotest.test_case "nested runs inline" `Quick
            test_pool_nested_runs_inline;
          q qcheck_pool_contract;
          q qcheck_pool_map_matches_serial;
          q qcheck_par_map_matches_serial;
        ] );
      ( "balancer",
        [
          Alcotest.test_case "round-robin exact" `Quick
            test_balancer_round_robin;
          Alcotest.test_case "least-queue low load" `Quick
            test_balancer_least_queue_low_load;
          Alcotest.test_case "least-queue burst balance" `Quick
            test_balancer_least_queue_balances_burst;
          Alcotest.test_case "consistent-hash properties" `Quick
            test_balancer_hash_properties;
          q qcheck_ring_remaps_only_failed_shard;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "determinism across pool sizes" `Slow
            test_cluster_determinism_across_pool_sizes;
          Alcotest.test_case "conservation" `Quick test_cluster_conservation;
          Alcotest.test_case "policies share arrival stream" `Quick
            test_cluster_policies_share_arrival_stream;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "determinism across pool sizes" `Slow
            test_chaos_determinism_across_pool_sizes;
          Alcotest.test_case "exact conservation" `Quick
            test_chaos_exact_conservation;
          q qcheck_blame_conservation_under_chaos;
          Alcotest.test_case "routes annotated" `Quick
            test_chaos_routes_annotated;
          Alcotest.test_case "epoch digests" `Quick
            test_chaos_epoch_digests;
          Alcotest.test_case "fleet unavailable" `Quick
            test_fleet_unavailable_raises;
        ] );
      ( "report",
        [
          Alcotest.test_case "schema round-trip" `Quick
            test_report_schema_roundtrip;
          Alcotest.test_case "phenomena counts" `Quick
            test_report_phenomena_counts;
        ] );
      ( "scripted",
        [ Alcotest.test_case "scripted arrivals" `Quick test_scripted_arrivals ] );
    ]
