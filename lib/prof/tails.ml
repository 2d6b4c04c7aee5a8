(* Tail forensics and LBO cost distillation over serialised reports.

   [of_report] accepts the latency-bearing artefacts the CLI writes —
   cgcsim-server-v2 and cgcsim-cluster-v3 — and normalises them into one
   view: the fleet-wide blame decomposition plus the worst-N causal
   chains, from the exact integer-cycle spans both schemas carry.

   [lbo_of_bench] implements the "Distilling the Real Cost of
   Production Garbage Collectors" methodology on a cgcsim-bench-v1
   document: group cells by workload shape, take each group's
   lower-bound-overhead baseline — the best service-only latency
   (mean e2e minus mean GC blame, a service-only replay computed
   analytically) or the best throughput — and report every cell's
   distilled GC cost as its fractional distance above that baseline. *)

let schema = "cgcsim-tails-v1"
let lbo_schema = "cgcsim-lbo-v1"
let bench_schema = "cgcsim-bench-v1"

(* ------------------------- JSON accessors ------------------------- *)

let mem = Json.member

let get_int k j =
  match mem k j with
  | Some (Json.Int n) -> n
  | Some (Json.Float f) -> int_of_float f
  | _ -> 0

let get_float k j =
  match mem k j with
  | Some (Json.Float f) -> f
  | Some (Json.Int n) -> float_of_int n
  | _ -> 0.0

let get_bool k j = match mem k j with Some (Json.Bool b) -> b | _ -> false
let get_str k j = match mem k j with Some (Json.Str s) -> s | _ -> ""

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* ------------------------------ tails ----------------------------- *)

type tail = {
  rid : int;
  shard : int;
  first : int;
  epoch : int;
  attempts : int;
  hedged : bool;
  hedge_win : bool;
  e2e_cycles : int;
  e2e_ms : float;
  fleet_queue : int;
  backoff : int;
  queue : int;
  gc_queue : int;
  service : int;
  gc_service : int;
}

type t = {
  source : string;  (* the source artefact's schema tag *)
  count : int;  (* completed requests *)
  cycles_per_ms : float;
  mean_ms : (string * float) list;  (* component -> mean ms *)
  tails : tail list;  (* worst-first *)
  exemplars : (int * tail) list;  (* (decade, span) *)
  tails_json : Json.t list;  (* raw span objects, passed through *)
  exemplars_json : Json.t list;
  dropped : int;  (* ring-dropped events summed over shards *)
}

let tail_of_json s =
  let b = match mem "blame" s with Some b -> b | None -> Json.Obj [] in
  {
    rid = get_int "rid" s;
    shard = get_int "shard" s;
    first = get_int "firstChoice" s;
    epoch = get_int "epoch" s;
    attempts = get_int "attempts" s;
    hedged = get_bool "hedged" s;
    hedge_win = get_bool "hedgeWin" s;
    e2e_cycles = get_int "e2eCycles" s;
    e2e_ms = get_float "e2eMs" s;
    fleet_queue = get_int "fleetQueueCycles" b;
    backoff = get_int "backoffCycles" b;
    queue = get_int "queueCycles" b;
    gc_queue = get_int "gcQueueCycles" b;
    service = get_int "serviceCycles" b;
    gc_service = get_int "gcServiceCycles" b;
  }

(* A report object carrying blame/tails/exemplars blocks (a
   cgcsim-server-v2 report, or a cgcsim-cluster-v3 fleet block). *)
let of_spans ~source ~dropped body =
  let blame = match mem "blame" body with Some b -> b | None -> Json.Obj [] in
  let count = get_int "count" blame in
  let cpm = get_float "cyclesPerMs" blame in
  let mean_of = mem "meanMs" blame in
  let mean k =
    match mean_of with Some m -> get_float k m | None -> 0.0
  in
  let arr k =
    match mem k body with Some (Json.Arr l) -> l | _ -> []
  in
  let tails_json = arr "tails" in
  let exemplars_json = arr "exemplars" in
  {
    source;
    count;
    cycles_per_ms = cpm;
    mean_ms =
      [
        ("e2e", mean "e2e");
        ("fleetQueue", mean "fleetQueue");
        ("backoff", mean "backoff");
        ("queue", mean "queue");
        ("gcQueue", mean "gcQueue");
        ("service", mean "service");
        ("gcService", mean "gcService");
      ];
    tails = List.map tail_of_json tails_json;
    exemplars =
      List.map (fun s -> (get_int "decade" s, tail_of_json s)) exemplars_json;
    tails_json;
    exemplars_json;
    dropped;
  }

let shard_drops j =
  match mem "perShard" j with
  | Some (Json.Arr shards) ->
      List.fold_left (fun acc s -> acc + get_int "droppedEvents" s) 0 shards
  | _ -> 0

let of_json j =
  match mem "schema" j with
  | Some (Json.Str ("cgcsim-server-v2" as source)) ->
      Ok (of_spans ~source ~dropped:0 j)
  | Some (Json.Str ("cgcsim-cluster-v3" as source)) -> (
      match mem "fleet" j with
      | Some fleet -> Ok (of_spans ~source ~dropped:(shard_drops j) fleet)
      | None -> Error "cgcsim-cluster-v3 report has no fleet block")
  | Some (Json.Str v) ->
      Error
        (Printf.sprintf
           "unsupported report schema %s (want cgcsim-server-v2 or \
            cgcsim-cluster-v3)"
           v)
  | _ -> Error "missing schema tag"

let of_report s =
  match Json.parse s with Error e -> Error e | Ok j -> of_json j

(* ------------------------------ render ---------------------------- *)

let text ?(n = 16) t =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "tail forensics: %s, %d completed requests\n" t.source t.count;
  let e2e = match t.mean_ms with (_, e) :: _ -> e | [] -> 0.0 in
  pf "  %-12s %10s %7s\n" "blame" "mean ms" "share";
  List.iter
    (fun (k, v) ->
      pf "  %-12s %10.4f %6.1f%%\n" k v
        (if e2e > 0.0 then 100.0 *. v /. e2e else 0.0))
    t.mean_ms;
  let shown = take n t.tails in
  pf "  worst %d of %d retained spans:\n" (List.length shown)
    (List.length t.tails);
  List.iteri
    (fun i tl ->
      let ms c =
        if t.cycles_per_ms > 0.0 then
          float_of_int c /. t.cycles_per_ms
        else 0.0
      in
      pf
        "  #%-3d rid %-8d %9.3f ms  shard %d (first %d, epoch %d, %d \
         retries%s)\n"
        (i + 1) tl.rid tl.e2e_ms tl.shard tl.first tl.epoch tl.attempts
        (if tl.hedge_win then ", hedge won"
         else if tl.hedged then ", hedged"
         else "");
      pf
        "       = fleet-q %.3f + backoff %.3f + queue %.3f + gc-queue %.3f \
         + service %.3f + gc-service %.3f\n"
        (ms tl.fleet_queue) (ms tl.backoff) (ms tl.queue) (ms tl.gc_queue)
        (ms tl.service) (ms tl.gc_service))
    shown;
  pf "  exemplars: %d spans across latency decades\n"
    (List.length t.exemplars);
  Buffer.contents b

let to_json ?(n = 16) t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("source", Json.Str t.source);
      ("exact", Json.Bool true);
      ("count", Json.Int t.count);
      ("cyclesPerMs", Json.Float t.cycles_per_ms);
      ("droppedEvents", Json.Int t.dropped);
      ( "blameMeanMs",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) t.mean_ms) );
      ("tails", Json.Arr (take n t.tails_json));
      ("exemplars", Json.Arr t.exemplars_json);
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

(* One bench cell -> (label, group, latency?, value, gc_ms) or None. *)
let lbo_point cell =
  let workload = get_str "workload" cell in
  let latency_of rep =
    match mem "latencyMs" rep with
    | Some lat ->
        let m k =
          match mem k lat with Some h -> get_float "mean" h | None -> 0.0
        in
        (* Prefer exact blame means when the report carries spans. *)
        let gc =
          match mem "blame" rep with
          | Some blame -> (
              match mem "meanMs" blame with
              | Some mm -> get_float "gcQueue" mm +. get_float "gcService" mm
              | None -> m "gcInflation")
          | None -> m "gcInflation"
        in
        Some (m "e2e", gc)
    | None -> None
  in
  match workload with
  | "serve" -> (
      match mem "server" cell with
      | Some (Json.Obj _ as rep) -> (
          match latency_of rep with
          | Some (e2e, gc) ->
              let label =
                Printf.sprintf "serve-%.0frps" (get_float "ratePerS" rep)
              in
              Some (label, "serve", true, e2e, gc)
          | None -> None)
      | _ -> None)
  | "cluster" -> (
      match mem "cluster" cell with
      | Some rep -> (
          match mem "fleet" rep with
          | Some fleet -> (
              match latency_of fleet with
              | Some (e2e, gc) ->
                  let shards = get_int "shards" cell in
                  let chaos =
                    match mem "chaos" cell with
                    | Some (Json.Str s) -> "-" ^ s
                    | _ -> ""
                  in
                  let label =
                    Printf.sprintf "cluster-%dsh-%.0frps%s" shards
                      (get_float "ratePerS" cell)
                      chaos
                  in
                  Some (label, Printf.sprintf "cluster-%dsh" shards, true, e2e, gc)
              | None -> None)
          | None -> None)
      | _ -> None)
  | "" -> None
  | w ->
      (* Throughput workloads (specjbb, pbob): the cell's tx/s against
         the best config of the same workload shape. *)
      let wh = get_int "warehouses" cell in
      let label =
        Printf.sprintf "%s-%dwh-k0=%.0f" w wh (get_float "k0" cell)
      in
      let tx = get_float "throughput" cell in
      if tx <= 0.0 then None
      else Some (label, Printf.sprintf "%s-%dwh" w wh, false, tx, 0.0)

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
      match mem "schema" j with
      | Some (Json.Str v) when v = bench_schema -> (
          match mem "cells" j with
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
let lbo_of_report s =
  match of_report s with
  | Error e -> Error e
  | Ok t ->
      let e2e = match t.mean_ms with (_, e) :: _ -> e | [] -> 0.0 in
      let gc =
        List.fold_left
          (fun acc (k, v) ->
            if k = "gcQueue" || k = "gcService" then acc +. v else acc)
          0.0 t.mean_ms
      in
      let base = e2e -. gc in
      Ok
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
