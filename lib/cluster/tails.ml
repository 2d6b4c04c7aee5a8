(* Tail forensics and LBO cost distillation over serialised reports.

   [of_report] parses a latency-bearing artefact the CLI writes —
   cgcsim-server-v2 or cgcsim-cluster-v3 — once, and hands it to the
   report module that owns its schema, whose reader returns the exact
   integer-cycle span summary: the fleet-wide blame decomposition plus
   the worst-N causal chains.

   [lbo_of_bench] implements the "Distilling the Real Cost of
   Production Garbage Collectors" methodology on a cgcsim-bench-v1
   document: group cells by workload shape, take each group's
   lower-bound-overhead baseline — the best service-only latency
   (mean e2e minus mean GC blame, a service-only replay computed
   analytically) or the best throughput — and report every cell's
   distilled GC cost as its fractional distance above that baseline. *)

module Json = Cgc_prof.Json
module Span = Cgc_server.Span
module Server_report = Cgc_server.Report

let schema = "cgcsim-tails-v1"
let lbo_schema = "cgcsim-lbo-v1"
let bench_schema = "cgcsim-bench-v1"

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* ------------------------------ tails ----------------------------- *)

type t = { source : string; spans : Span.summary; dropped : int }

let of_report s =
  match Json.parse s with
  | Error e -> Error e
  | Ok j -> (
      match Json.member "schema" j with
      | Some (Json.Str source) when source = Server_report.schema ->
          Result.map
            (fun spans -> { source; spans; dropped = 0 })
            (Server_report.read_spans j)
      | Some (Json.Str source) when source = Report.schema ->
          Result.map
            (fun (spans, dropped) -> { source; spans; dropped })
            (Report.read j)
      | Some (Json.Str v) ->
          Error
            (Printf.sprintf "unsupported report schema %s (want %s or %s)" v
               Server_report.schema Report.schema)
      | _ -> Error "missing schema tag")

(* The report states its millisecond values at [%.6f]; the text and the
   LBO row start from those digits, so they say what the file says. *)
let as_stated x = float_of_string (Printf.sprintf "%.6f" x)

let stated_means t =
  List.map (fun (k, v) -> (k, as_stated v)) (Server_report.mean_ms t.spans)

(* ------------------------------ render ---------------------------- *)

let text ?(n = 16) t =
  let sum = t.spans in
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "tail forensics: %s, %d completed requests\n" t.source sum.Span.count;
  let means = stated_means t in
  let e2e = List.assoc "e2e" means in
  pf "  %-12s %10s %7s\n" "blame" "mean ms" "share";
  List.iter
    (fun (k, v) ->
      pf "  %-12s %10.4f %6.1f%%\n" k v
        (if e2e > 0.0 then 100.0 *. v /. e2e else 0.0))
    means;
  let shown = take n sum.Span.worst in
  pf "  worst %d of %d retained spans:\n" (List.length shown)
    (List.length sum.Span.worst);
  let ms c =
    let cpm = sum.Span.cycles_per_ms in
    if cpm > 0.0 then float_of_int c /. cpm else 0.0
  in
  List.iteri
    (fun i (s : Span.t) ->
      let r = s.Span.route and bl = s.Span.blame in
      pf
        "  #%-3d rid %-8d %9.3f ms  shard %d (first %d, epoch %d, %d \
         retries%s)\n"
        (i + 1) r.Span.rid
        (as_stated (ms (Span.e2e_cycles s)))
        r.Span.shard r.Span.first r.Span.epoch r.Span.attempts
        (if r.Span.hedge_win then ", hedge won"
         else if r.Span.hedged then ", hedged"
         else "");
      pf
        "       = fleet-q %.3f + backoff %.3f + queue %.3f + gc-queue %.3f \
         + service %.3f + gc-service %.3f\n"
        (ms bl.Span.fleet_queue) (ms bl.Span.backoff) (ms bl.Span.queue)
        (ms bl.Span.gc_queue) (ms bl.Span.service) (ms bl.Span.gc_service))
    shown;
  pf "  exemplars: %d spans across latency decades\n"
    (List.length sum.Span.exemplars);
  Buffer.contents b

let to_json ?(n = 16) t =
  let sum = t.spans in
  let cycles_per_ms = sum.Span.cycles_per_ms in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("source", Json.Str t.source);
      ("exact", Json.Bool true);
      ("count", Json.Int sum.Span.count);
      ("cyclesPerMs", Json.Float cycles_per_ms);
      ("droppedEvents", Json.Int t.dropped);
      ( "blameMeanMs",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Float v))
             (Server_report.mean_ms sum)) );
      ( "tails",
        Json.Arr
          (List.map
             (Server_report.span_json ~cycles_per_ms)
             (take n sum.Span.worst)) );
      ( "exemplars",
        Json.Arr
          (List.map
             (Server_report.exemplar_json ~cycles_per_ms)
             sum.Span.exemplars) );
    ]

(* ------------------------------- LBO ------------------------------ *)

type lbo_row = {
  label : string;
  group : string;
  latency : bool;  (* latency cell (ms) vs throughput cell (tx/s) *)
  value : float;  (* mean e2e ms, or tx/s *)
  gc_ms : float;  (* mean GC blame, latency cells only *)
  baseline : float;  (* the group's lower-bound-overhead baseline *)
  distilled : float;  (* fractional GC cost above the baseline *)
}

(* One bench cell -> (label, group, latency?, value, gc_ms), or None
   when the cell lacks a key its kind needs. *)
let lbo_point cell =
  let ( let* ) = Option.bind in
  let int k j =
    match Json.member k j with Some (Json.Int n) -> Some n | _ -> None
  in
  let num k j =
    match Json.member k j with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int n) -> Some (float_of_int n)
    | _ -> None
  in
  let latency_of rep =
    let* lat = Json.member "latencyMs" rep in
    let mean k = Option.bind (Json.member k lat) (num "mean") in
    let* e2e = mean "e2e" in
    (* Prefer exact blame means when the report carries spans. *)
    let* gc =
      match Option.bind (Json.member "blame" rep) (Json.member "meanMs") with
      | Some mm ->
          let* q = num "gcQueue" mm in
          let* s = num "gcService" mm in
          Some (q +. s)
      | None -> mean "gcInflation"
    in
    Some (e2e, gc)
  in
  match Json.member "workload" cell with
  | Some (Json.Str "serve") ->
      let* rep = Json.member "server" cell in
      let* e2e, gc = latency_of rep in
      let* rate = num "ratePerS" rep in
      Some (Printf.sprintf "serve-%.0frps" rate, "serve", true, e2e, gc)
  | Some (Json.Str "cluster") ->
      let* fleet =
        Option.bind (Json.member "cluster" cell) (Json.member "fleet")
      in
      let* e2e, gc = latency_of fleet in
      let* shards = int "shards" cell in
      let* rate = num "ratePerS" cell in
      let chaos =
        match Json.member "chaos" cell with
        | Some (Json.Str s) -> "-" ^ s
        | _ -> ""
      in
      let label = Printf.sprintf "cluster-%dsh-%.0frps%s" shards rate chaos in
      Some (label, Printf.sprintf "cluster-%dsh" shards, true, e2e, gc)
  | Some (Json.Str w) ->
      (* Throughput workloads (specjbb, pbob): the cell's tx/s against
         the best config of the same workload shape. *)
      let* wh = int "warehouses" cell in
      let* k0 = num "k0" cell in
      let* tx = num "throughput" cell in
      if tx <= 0.0 then None
      else
        Some
          ( Printf.sprintf "%s-%dwh-k0=%.0f" w wh k0,
            Printf.sprintf "%s-%dwh" w wh,
            false,
            tx,
            0.0 )
  | _ -> None

let lbo_rows points =
  (* Group baselines: for latency groups the lower-bound overhead is the
     best service-only mean (e2e - gc); for throughput groups it is the
     best observed rate.  Serial fold in cell order — deterministic. *)
  let baseline group latency =
    List.fold_left
      (fun acc (_, g, l, v, gc) ->
        if g <> group || l <> latency then acc
        else
          let cand = if latency then v -. gc else v in
          match acc with
          | None -> Some cand
          | Some best ->
              Some (if latency then Float.min best cand else Float.max best cand))
      None points
  in
  List.filter_map
    (fun (label, group, latency, value, gc_ms) ->
      match baseline group latency with
      | Some base when base > 0.0 ->
          let distilled =
            if latency then (value /. base) -. 1.0 else (base /. value) -. 1.0
          in
          Some { label; group; latency; value; gc_ms; baseline = base; distilled }
      | _ -> None)
    points

let lbo_of_bench s =
  match Json.parse s with
  | Error e -> Error e
  | Ok j -> (
      match Json.member "schema" j with
      | Some (Json.Str v) when v = bench_schema -> (
          match Json.member "cells" j with
          | Some (Json.Arr cells) ->
              Ok (lbo_rows (List.filter_map lbo_point cells))
          | _ -> Error "bench document has no cells array")
      | Some (Json.Str v) ->
          Error
            (Printf.sprintf "unsupported bench schema %s (want %s)" v
               bench_schema)
      | _ -> Error "missing schema tag")

(* Single-report LBO: the report is its own group of one, so the
   baseline is its own service-only mean and the distilled cost is the
   GC inflation relative to it. *)
let lbo_of_report t =
  let means = stated_means t in
  let e2e = List.assoc "e2e" means in
  let gc = List.assoc "gcQueue" means +. List.assoc "gcService" means in
  let base = e2e -. gc in
  {
    label = t.source;
    group = t.source;
    latency = true;
    value = e2e;
    gc_ms = gc;
    baseline = base;
    distilled = (if base > 0.0 then (e2e /. base) -. 1.0 else 0.0);
  }

let lbo_text rows =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "LBO-distilled GC cost (baseline = per-group lower-bound overhead)\n";
  pf "  %-28s %-14s %12s %10s %12s %9s\n" "cell" "group" "value" "gc-ms"
    "baseline" "distilled";
  List.iter
    (fun r ->
      pf "  %-28s %-14s %12.3f %10.4f %12.3f %8.1f%%\n" r.label r.group r.value
        r.gc_ms r.baseline (100.0 *. r.distilled))
    rows;
  Buffer.contents b

let lbo_json rows =
  Json.Obj
    [
      ("schema", Json.Str lbo_schema);
      ( "rows",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("cell", Json.Str r.label);
                   ("group", Json.Str r.group);
                   ("metric", Json.Str (if r.latency then "latencyMs" else "txPerS"));
                   ("value", Json.Float r.value);
                   ("gcMs", Json.Float r.gc_ms);
                   ("baseline", Json.Float r.baseline);
                   ("distilled", Json.Float r.distilled);
                 ])
             rows) );
    ]
