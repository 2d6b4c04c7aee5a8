(* Tests for the tail-forensics / LBO analyzer (Cgc_cluster.Tails), the
   span reader it shares with the report validators, and the fleet
   timeline: exact-span parsing of freshly generated cgcsim-server-v2
   and cgcsim-cluster-v3 reports, the reader as the exact inverse of the
   span writer, rejection of incomplete or non-conserving reports and of
   every other schema, the LBO distillation arithmetic on a synthetic
   bench document, and byte-identical tails / LBO / timeline artefacts
   at every pool size. *)

module Json = Cgc_prof.Json
module Tails = Cgc_cluster.Tails
module Vm = Cgc_runtime.Vm
module Server = Cgc_server.Server
module Span = Cgc_server.Span
module Server_report = Cgc_server.Report
module Balancer = Cgc_cluster.Balancer
module Cluster = Cgc_cluster.Cluster
module Cluster_report = Cgc_cluster.Report
module Shard = Cgc_cluster.Shard
module Timeline = Cgc_cluster.Timeline
module Dpool = Cgc_cluster.Dpool
module Cluster_fault = Cgc_fault.Cluster_fault

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cf = Alcotest.(float 1e-9)

let server_run ?(seed = 1) () =
  let vm = Vm.create (Vm.config ~heap_mb:16.0 ~ncpus:4 ~seed ()) in
  let scfg = Server.cfg ~rate_per_s:6000.0 ~slo_ms:50.0 () in
  let srv = Server.create scfg vm in
  Vm.run vm ~ms:400.0;
  let tot = Server.totals srv in
  (Server_report.to_json scfg ~ran_ms:400.0 tot, tot)

let server_report_string () =
  Json.to_string ~pretty:true (fst (server_run ()))

let cluster_cfg ?chaos ?seed () =
  Cluster.cfg ~shards:3 ~policy:Balancer.Least_queue ~rate_per_s:6000.0
    ~slo_ms:50.0 ~heap_mb:16.0 ~ms:300.0 ?chaos ?seed ()

let cluster_report_string ?chaos ?(domains = 1) () =
  Dpool.set_size domains;
  Fun.protect
    ~finally:(fun () -> Dpool.set_size 1)
    (fun () ->
      Json.to_string ~pretty:true
        (Cluster_report.to_json (Cluster.run (cluster_cfg ?chaos ()))))

(* ------------------------- exact-span parsing ------------------------ *)

let test_server_v2_end_to_end () =
  let s = server_report_string () in
  match Tails.of_report s with
  | Error e -> Alcotest.failf "server v2 rejected: %s" e
  | Ok t ->
      check cb "exact spans" true
        (Json.member "exact" (Tails.to_json t) = Some (Json.Bool true));
      check Alcotest.string "source tag" "cgcsim-server-v2" t.Tails.source;
      check cb "requests counted" true (t.Tails.spans.Span.count > 0);
      check cb "tails retained" true (t.Tails.spans.Span.worst <> []);
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

(* [j] with member [k] of the object replaced by [f] of its value, or
   removed when [f] returns [None]. *)
let edit k f = function
  | Json.Obj kvs ->
      Json.Obj
        (List.filter_map
           (fun (k', v) ->
             if k' = k then Option.map (fun v -> (k', v)) (f v)
             else Some (k', v))
           kvs)
  | j -> j

let each f = function Json.Arr l -> Some (Json.Arr (List.map f l)) | j -> Some j

let test_cluster_v3_end_to_end () =
  let s = cluster_report_string ~chaos:Cluster_fault.Shard_restart () in
  (match Tails.of_report s with
  | Error e -> Alcotest.failf "cluster v3 rejected: %s" e
  | Ok t ->
      check cb "exact spans" true
        (Json.member "exact" (Tails.to_json t) = Some (Json.Bool true));
      check Alcotest.string "source tag" "cgcsim-cluster-v3" t.Tails.source;
      check cb "requests counted" true (t.Tails.spans.Span.count > 0);
      check cb "tails retained" true (t.Tails.spans.Span.worst <> []));
  (* Ring drops are summed over the shards: give every shard 3 dropped
     events and check the sum. *)
  let j = match Json.parse s with Ok j -> j | Error e -> Alcotest.fail e in
  let nshards =
    match Json.member "perShard" j with
    | Some (Json.Arr l) -> List.length l
    | _ -> Alcotest.fail "no perShard array"
  in
  let edited =
    edit "perShard"
      (each (edit "droppedEvents" (fun _ -> Some (Json.Int 3))))
      j
  in
  match Tails.of_report (Json.to_string edited) with
  | Error e -> Alcotest.failf "cluster v3 rejected: %s" e
  | Ok t -> check ci "shard drops summed" (3 * nshards) t.Tails.dropped

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

(* ------------------------ the report reader ------------------------- *)

let components =
  [
    "fleetQueueCycles";
    "backoffCycles";
    "queueCycles";
    "gcQueueCycles";
    "serviceCycles";
    "gcServiceCycles";
  ]

let at path k = if path = "" then k else path ^ "." ^ k

(* Every copy of [j] with one blame component moved by one cycle, paired
   with the path of the blame object that no longer conserves. *)
let rec mutants path = function
  | Json.Obj kvs ->
      let replace k v =
        Json.Obj (List.map (fun (k', v') -> (k', if k' = k then v else v')) kvs)
      in
      let own =
        if List.mem_assoc "gcServiceCycles" kvs then
          List.filter_map
            (fun k ->
              match List.assoc_opt k kvs with
              | Some (Json.Int n) -> Some (path, replace k (Json.Int (n + 1)))
              | _ -> None)
            components
        else []
      in
      own
      @ List.concat_map
          (fun (k, v) ->
            List.map (fun (p, v') -> (p, replace k v')) (mutants (at path k) v))
          kvs
  | Json.Arr l ->
      List.concat
        (List.mapi
           (fun i v ->
             List.map
               (fun (p, v') ->
                 let l' = List.mapi (fun i' x -> if i' = i then v' else x) l in
                 (p, Json.Arr l'))
               (mutants (Printf.sprintf "%s[%d]" path i) v))
           l)
  | _ -> []

(* [sums] are the summaries the report was written from: each has one
   blame block and one blame object per retained span. *)
let check_mutants name read j sums =
  let ms = mutants "" j in
  let objects (s : Span.summary) =
    1 + List.length s.Span.worst + List.length s.Span.exemplars
  in
  check ci
    (name ^ ": every component of every blame object changed")
    (6 * List.fold_left (fun n s -> n + objects s) 0 sums)
    (List.length ms);
  List.iter
    (fun (path, j') ->
      match read j' with
      | Ok _ ->
          Alcotest.failf "%s: accepted a changed component under %s" name path
      | Error e ->
          if not (String.starts_with ~prefix:(path ^ ": ") e) then
            Alcotest.failf "%s: changing %s gave %S" name path e)
    ms

let reparse j =
  match Json.parse (Json.to_string j) with
  | Ok j -> j
  | Error e -> Alcotest.failf "report unparseable: %s" e

let summary_testable =
  Alcotest.testable (fun ppf _ -> Format.fprintf ppf "<summary>") ( = )

(* The reader is the exact inverse of the span writer on serve, cluster
   and shard-restart chaos runs at several seeds, and it rejects every
   single-component change, naming the blame object it broke. *)
let test_reader_inverts_writer () =
  List.iter
    (fun seed ->
      let j, tot = server_run ~seed () in
      let j = reparse j in
      (match Server_report.read_spans j with
      | Ok sum ->
          check summary_testable
            (Printf.sprintf "serve seed %d: read back" seed)
            tot.Server.spans sum
      | Error e -> Alcotest.failf "serve seed %d: %s" seed e);
      check_mutants
        (Printf.sprintf "serve seed %d" seed)
        Server_report.read_spans j [ tot.Server.spans ];
      List.iter
        (fun chaos ->
          let name =
            Printf.sprintf "cluster%s seed %d"
              (if chaos = None then "" else " shard-restart")
              seed
          in
          let r = Cluster.run (cluster_cfg ?chaos ~seed ()) in
          let j = reparse (Cluster_report.to_json r) in
          (match Cluster_report.read j with
          | Ok (sum, _) ->
              check summary_testable (name ^ ": fleet read back")
                (Cluster.fleet_totals r).Server.spans sum
          | Error e -> Alcotest.failf "%s: %s" name e);
          (match Json.member "perShard" j with
          | Some (Json.Arr shards) ->
              List.iteri
                (fun i sj ->
                  match
                    Option.map Server_report.read_spans
                      (Json.member "server" sj)
                  with
                  | Some (Ok sum) ->
                      check summary_testable
                        (Printf.sprintf "%s: shard %d read back" name i)
                        r.Cluster.shards.(i).Shard.totals.Server.spans sum
                  | _ -> Alcotest.failf "%s: shard %d unreadable" name i)
                shards
          | _ -> Alcotest.failf "%s: no perShard array" name);
          check_mutants name Cluster_report.read j
            ((Cluster.fleet_totals r).Server.spans
            :: List.map
                 (fun (s : Shard.result) -> s.Shard.totals.Server.spans)
                 (Array.to_list r.Cluster.shards)))
        [ None; Some Cluster_fault.Shard_restart ])
    [ 1; 2; 3 ]

(* Incomplete reports: each is rejected, and the error names the path
   of what is missing. *)
let test_validators_reject_incomplete () =
  let server = reparse (fst (server_run ())) in
  let cluster =
    match Json.parse (cluster_report_string ()) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let drop _ = None in
  let first f = function
    | Json.Arr (x :: rest) -> Some (Json.Arr (f x :: rest))
    | j -> Some j
  in
  let first_span f = edit "tails" (first f) in
  let expect validate what doc path =
    match validate doc with
    | Ok _ -> Alcotest.failf "accepted %s" what
    | Error e ->
        if not (String.starts_with ~prefix:(path ^ ": ") e) then
          Alcotest.failf "%s: expected an error naming %s, got %S" what path e
  in
  List.iter
    (fun (what, doc, path) ->
      expect Server_report.validate ("server: " ^ what) doc path)
    [
      ("a bare schema tag", {|{"schema":"cgcsim-server-v2"}|}, "blame");
      ("no blame block", Json.to_string (edit "blame" drop server), "blame");
      ("no tails", Json.to_string (edit "tails" drop server), "tails");
      ( "no exemplars",
        Json.to_string (edit "exemplars" drop server),
        "exemplars" );
      ( "a span without blame",
        Json.to_string (first_span (edit "blame" drop) server),
        "tails[0].blame" );
      ( "a span without e2eCycles",
        Json.to_string (first_span (edit "e2eCycles" drop) server),
        "tails[0].e2eCycles" );
    ];
  let in_fleet f = edit "fleet" (fun v -> Some (f v)) cluster in
  let shard0 f = edit "perShard" (first f) cluster in
  let in_shard0 f = shard0 (edit "server" (fun v -> Some (f v))) in
  List.iter
    (fun (what, doc, path) ->
      expect Cluster_report.validate ("cluster: " ^ what) doc path)
    [
      ( "an empty fleet block",
        {|{"schema":"cgcsim-cluster-v3","fleet":{}}|},
        "fleet.blame" );
      ( "no fleet blame",
        Json.to_string (in_fleet (edit "blame" drop)),
        "fleet.blame" );
      ( "no fleet tails",
        Json.to_string (in_fleet (edit "tails" drop)),
        "fleet.tails" );
      ( "a fleet span without blame",
        Json.to_string (in_fleet (first_span (edit "blame" drop))),
        "fleet.tails[0].blame" );
      ( "a shard span without e2eCycles",
        Json.to_string (in_shard0 (first_span (edit "e2eCycles" drop))),
        "perShard[0].server.tails[0].e2eCycles" );
      ( "a shard without droppedEvents",
        Json.to_string (shard0 (edit "droppedEvents" drop)),
        "perShard[0].droppedEvents" );
    ]

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
  match Tails.of_report (server_report_string ()) with
  | Error e -> Alcotest.failf "report rejected: %s" e
  | Ok t ->
      let r = Tails.lbo_of_report t in
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
      ( "reader",
        [
          Alcotest.test_case "inverts the writer" `Slow
            test_reader_inverts_writer;
          Alcotest.test_case "rejects incomplete reports" `Quick
            test_validators_reject_incomplete;
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
