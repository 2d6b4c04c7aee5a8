(* Tests for the tail-forensics / LBO analyzer (Cgc_prof.Tails) and the
   fleet timeline: exact-span parsing of freshly generated
   cgcsim-server-v2 and cgcsim-cluster-v3 reports, rejection of every
   other schema, the LBO distillation arithmetic on a synthetic bench
   document, and byte-identical tails / LBO / timeline artefacts at every
   pool size. *)

module Json = Cgc_prof.Json
module Tails = Cgc_prof.Tails
module Vm = Cgc_runtime.Vm
module Server = Cgc_server.Server
module Server_report = Cgc_server.Report
module Balancer = Cgc_cluster.Balancer
module Cluster = Cgc_cluster.Cluster
module Cluster_report = Cgc_cluster.Report
module Timeline = Cgc_cluster.Timeline
module Dpool = Cgc_cluster.Dpool
module Cluster_fault = Cgc_fault.Cluster_fault

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cf = Alcotest.(float 1e-9)

let server_report_string () =
  let vm = Vm.create (Vm.config ~heap_mb:16.0 ~ncpus:4 ~seed:1 ()) in
  let scfg = Server.cfg ~rate_per_s:6000.0 ~slo_ms:50.0 () in
  let srv = Server.create scfg vm in
  Vm.run vm ~ms:400.0;
  Json.to_string ~pretty:true
    (Server_report.to_json scfg ~ran_ms:400.0 (Server.totals srv))

let cluster_cfg ?chaos () =
  Cluster.cfg ~shards:3 ~policy:Balancer.Least_queue ~rate_per_s:6000.0
    ~slo_ms:50.0 ~heap_mb:16.0 ~ms:300.0 ?chaos ()

let cluster_report_string ?chaos ?(domains = 1) () =
  Dpool.set_size domains;
  Fun.protect
    ~finally:(fun () -> Dpool.set_size 1)
    (fun () ->
      Json.to_string ~pretty:true
        (Cluster_report.to_json (Cluster.run (cluster_cfg ?chaos ()))))

(* ------------------------- exact-span parsing ------------------------ *)

let tail_sums (t : Tails.tail) =
  t.Tails.fleet_queue + t.Tails.backoff + t.Tails.queue + t.Tails.gc_queue
  + t.Tails.service + t.Tails.gc_service

let test_server_v2_end_to_end () =
  let s = server_report_string () in
  match Tails.of_report s with
  | Error e -> Alcotest.failf "server v2 rejected: %s" e
  | Ok t ->
      check cb "exact spans" true
        (Json.member "exact" (Tails.to_json t) = Some (Json.Bool true));
      check Alcotest.string "source tag" "cgcsim-server-v2" t.Tails.source;
      check cb "requests counted" true (t.Tails.count > 0);
      check cb "tails retained" true (t.Tails.tails <> []);
      List.iter
        (fun (tl : Tails.tail) ->
          check ci
            (Printf.sprintf "rid %d parsed blame sums to e2e" tl.Tails.rid)
            tl.Tails.e2e_cycles (tail_sums tl))
        t.Tails.tails;
      check cb "text renders chains" true
        (let txt = Tails.text ~n:4 t in
         String.length txt > 0);
      (* the JSON artefact round-trips through the parser *)
      let j = Json.to_string ~pretty:true (Tails.to_json ~n:8 t) in
      (match Json.parse j with
      | Error e -> Alcotest.failf "tails JSON unparseable: %s" e
      | Ok p ->
          check cb "tails schema tag" true
            (Json.member "schema" p = Some (Json.Str "cgcsim-tails-v1")))

let test_cluster_v3_end_to_end () =
  let s = cluster_report_string ~chaos:Cluster_fault.Shard_restart () in
  (match Tails.of_report s with
  | Error e -> Alcotest.failf "cluster v3 rejected: %s" e
  | Ok t ->
      check cb "exact spans" true
        (Json.member "exact" (Tails.to_json t) = Some (Json.Bool true));
      check Alcotest.string "source tag" "cgcsim-cluster-v3" t.Tails.source;
      check cb "requests counted" true (t.Tails.count > 0);
      check cb "tails retained" true (t.Tails.tails <> []);
      List.iter
        (fun (tl : Tails.tail) ->
          check ci "parsed blame sums to e2e" tl.Tails.e2e_cycles
            (tail_sums tl))
        (t.Tails.tails @ List.map snd t.Tails.exemplars));
  (* Ring drops are summed over the shards. *)
  match
    Tails.of_report
      {|{"schema": "cgcsim-cluster-v3", "fleet": {},
         "perShard": [{"droppedEvents": 3}, {"droppedEvents": 0}]}|}
  with
  | Error e -> Alcotest.failf "cluster v3 rejected: %s" e
  | Ok t -> check ci "shard drops summed" 3 t.Tails.dropped

let test_rejects_foreign_schema () =
  (match Tails.of_report "{\"schema\": \"cgcsim-bench-v1\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a bench document as a report");
  (* The retired pre-span schemas are foreign too. *)
  List.iter
    (fun tag ->
      match Tails.of_report (Printf.sprintf "{\"schema\": \"%s\"}" tag) with
      | Error e ->
          check Alcotest.string "message names the accepted schemas"
            (Printf.sprintf
               "unsupported report schema %s (want cgcsim-server-v2 or \
                cgcsim-cluster-v3)"
               tag)
            e
      | Ok _ -> Alcotest.failf "accepted a %s report" tag)
    [ "cgcsim-server-v1"; "cgcsim-cluster-v2" ];
  (match Tails.of_report "{}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a schema-less document");
  match Tails.of_report "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage"

(* ------------------------------- LBO -------------------------------- *)

let synthetic_bench =
  {|{"schema": "cgcsim-bench-v1", "cells": [
     {"workload": "serve",
      "server": {"ratePerS": 4000.0,
                 "latencyMs": {"e2e": {"mean": 2.0},
                               "gcInflation": {"mean": 0.5}}}},
     {"workload": "serve",
      "server": {"ratePerS": 8000.0,
                 "latencyMs": {"e2e": {"mean": 3.0},
                               "gcInflation": {"mean": 1.5}}}},
     {"workload": "specjbb", "warehouses": 4, "k0": 8.0,
      "throughput": 1000.0},
     {"workload": "specjbb", "warehouses": 4, "k0": 12.0,
      "throughput": 1250.0}]}|}

let test_lbo_distillation_arithmetic () =
  match Tails.lbo_of_bench synthetic_bench with
  | Error e -> Alcotest.failf "synthetic bench rejected: %s" e
  | Ok rows ->
      check ci "all four cells distilled" 4 (List.length rows);
      let row label = List.find (fun r -> r.Tails.label = label) rows in
      (* serve group: baseline = min(2.0 - 0.5, 3.0 - 1.5) = 1.5 *)
      let r1 = row "serve-4000rps" in
      check cf "serve baseline" 1.5 r1.Tails.baseline;
      check cf "serve-4000 distilled = 2.0/1.5 - 1"
        ((2.0 /. 1.5) -. 1.0)
        r1.Tails.distilled;
      let r2 = row "serve-8000rps" in
      check cf "serve-8000 distilled = 3.0/1.5 - 1" 1.0 r2.Tails.distilled;
      (* throughput group: baseline = best rate = 1250 *)
      let r3 = row "specjbb-4wh-k0=8" in
      check cf "throughput baseline" 1250.0 r3.Tails.baseline;
      check cf "slower cell distilled = 1250/1000 - 1" 0.25 r3.Tails.distilled;
      let r4 = row "specjbb-4wh-k0=12" in
      check cf "best cell distils to zero" 0.0 r4.Tails.distilled;
      (* renderings *)
      check cb "lbo text renders" true
        (String.length (Tails.lbo_text rows) > 0);
      match Json.member "schema" (Tails.lbo_json rows) with
      | Some (Json.Str "cgcsim-lbo-v1") -> ()
      | _ -> Alcotest.fail "lbo schema tag missing"

let test_lbo_of_single_report () =
  let s = server_report_string () in
  match Tails.lbo_of_report s with
  | Error e -> Alcotest.failf "lbo_of_report rejected: %s" e
  | Ok r ->
      check cb "baseline positive" true (r.Tails.baseline > 0.0);
      check cb "distilled non-negative" true (r.Tails.distilled >= 0.0);
      check cf "identity: value = baseline * (1 + distilled)" r.Tails.value
        (r.Tails.baseline *. (1.0 +. r.Tails.distilled))

(* ----------------------- determinism at any jobs --------------------- *)

let test_tails_byte_identical_across_pool_sizes () =
  let artefacts domains =
    Dpool.set_size domains;
    Fun.protect
      ~finally:(fun () -> Dpool.set_size 1)
      (fun () ->
        let r =
          Cluster.run (cluster_cfg ~chaos:Cluster_fault.Shard_restart ())
        in
        let report = Json.to_string ~pretty:true (Cluster_report.to_json r) in
        let t =
          match Tails.of_report report with
          | Ok t -> t
          | Error e -> Alcotest.failf "report rejected: %s" e
        in
        ( Json.to_string ~pretty:true (Tails.to_json ~n:16 t),
          Tails.text ~n:16 t,
          Timeline.chrome_json r ))
  in
  let j1, t1, tl1 = artefacts 1 and j4, t4, tl4 = artefacts 4 in
  check Alcotest.string "tails JSON byte-identical at 1 vs 4 domains" j1 j4;
  check Alcotest.string "tails text byte-identical at 1 vs 4 domains" t1 t4;
  check cb "timeline byte-identical at 1 vs 4 domains" true (tl1 = tl4);
  (* the timeline is a plausible Chrome trace *)
  check cb "timeline has counter events" true
    (String.length tl1 > 0
    &&
    let has_counter = ref false in
    String.iteri
      (fun i c ->
        if c = 'C' && i > 0 && tl1.[i - 1] = '"' then has_counter := true)
      tl1;
    !has_counter)

let () =
  Alcotest.run "tails"
    [
      ( "parse",
        [
          Alcotest.test_case "server v2 end-to-end" `Quick
            test_server_v2_end_to_end;
          Alcotest.test_case "cluster v3 end-to-end" `Quick
            test_cluster_v3_end_to_end;
          Alcotest.test_case "rejects foreign schemas" `Quick
            test_rejects_foreign_schema;
        ] );
      ( "lbo",
        [
          Alcotest.test_case "distillation arithmetic" `Quick
            test_lbo_distillation_arithmetic;
          Alcotest.test_case "single report" `Quick test_lbo_of_single_report;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identical at any pool size" `Slow
            test_tails_byte_identical_across_pool_sizes;
        ] );
    ]
