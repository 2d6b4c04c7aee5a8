module Histogram = Cgc_util.Histogram
module Json = Cgc_prof.Json

let schema = "cgcsim-server-v2"

let pcts = [ ("p50", 50.0); ("p95", 95.0); ("p99", 99.0); ("p999", 99.9) ]

let hist_json h =
  let n = Histogram.count h in
  Json.Obj
    ([
       ("count", Json.Int n);
       ("mean", Json.Float (Histogram.mean h));
       ("min", Json.Float (if n = 0 then 0.0 else Histogram.min h));
     ]
    @ List.map (fun (k, p) -> (k, Json.Float (Histogram.percentile h p))) pcts
    @ [ ("max", Json.Float (if n = 0 then 0.0 else Histogram.max h)) ])

let arrival_json (cfg : Server.cfg) =
  let kind = Arrival.kind_name cfg.Server.arrival in
  match cfg.Server.arrival with
  | Arrival.Poisson | Arrival.Constant -> Json.Obj [ ("kind", Json.Str kind) ]
  | Arrival.Bursty { on_ms; off_ms; factor } ->
      Json.Obj
        [
          ("kind", Json.Str kind);
          ("onMs", Json.Float on_ms);
          ("offMs", Json.Float off_ms);
          ("factor", Json.Float factor);
        ]

(* ------------------------- causal spans --------------------------- *)

let blame_fields (b : Span.blame) =
  [
    ("fleetQueueCycles", Json.Int b.Span.fleet_queue);
    ("backoffCycles", Json.Int b.Span.backoff);
    ("queueCycles", Json.Int b.Span.queue);
    ("gcQueueCycles", Json.Int b.Span.gc_queue);
    ("serviceCycles", Json.Int b.Span.service);
    ("gcServiceCycles", Json.Int b.Span.gc_service);
  ]

let ms_of ~cycles_per_ms c =
  if cycles_per_ms <= 0.0 then 0.0 else float_of_int c /. cycles_per_ms

let span_fields ~cycles_per_ms (s : Span.t) =
  let r = s.Span.route in
  [
    ("rid", Json.Int r.Span.rid);
    ("shard", Json.Int r.Span.shard);
    ("firstChoice", Json.Int r.Span.first);
    ("epoch", Json.Int r.Span.epoch);
    ("attempts", Json.Int r.Span.attempts);
    ("hedged", Json.Bool r.Span.hedged);
    ("hedgeWin", Json.Bool r.Span.hedge_win);
    ("enqueueCycles", Json.Int s.Span.enqueue);
    ("startCycles", Json.Int s.Span.start);
    ("finishCycles", Json.Int s.Span.finish);
    ("e2eCycles", Json.Int (Span.e2e_cycles s));
    ("e2eMs", Json.Float (ms_of ~cycles_per_ms (Span.e2e_cycles s)));
    ("blame", Json.Obj (blame_fields s.Span.blame));
  ]

let span_json ~cycles_per_ms s = Json.Obj (span_fields ~cycles_per_ms s)

let exemplar_json ~cycles_per_ms (d, s) =
  Json.Obj (("decade", Json.Int d) :: span_fields ~cycles_per_ms s)

let mean_ms (sum : Span.summary) =
  let mean c =
    if sum.Span.count = 0 then 0.0
    else
      ms_of ~cycles_per_ms:sum.Span.cycles_per_ms c
      /. float_of_int sum.Span.count
  in
  let b = sum.Span.sum in
  [
    ("e2e", mean sum.Span.sum_e2e);
    ("fleetQueue", mean b.Span.fleet_queue);
    ("backoff", mean b.Span.backoff);
    ("queue", mean b.Span.queue);
    ("gcQueue", mean b.Span.gc_queue);
    ("service", mean b.Span.service);
    ("gcService", mean b.Span.gc_service);
  ]

let spans_json (sum : Span.summary) =
  let cycles_per_ms = sum.Span.cycles_per_ms in
  [
    ( "blame",
      Json.Obj
        ([ ("count", Json.Int sum.Span.count) ]
        @ blame_fields sum.Span.sum
        @ [
            ("e2eCycles", Json.Int sum.Span.sum_e2e);
            ("cyclesPerMs", Json.Float cycles_per_ms);
            ( "meanMs",
              Json.Obj
                (List.map (fun (k, v) -> (k, Json.Float v)) (mean_ms sum)) );
          ]) );
    ("tails", Json.Arr (List.map (span_json ~cycles_per_ms) sum.Span.worst));
    ( "exemplars",
      Json.Arr (List.map (exemplar_json ~cycles_per_ms) sum.Span.exemplars) );
  ]

(* The inverse of [spans_json].  Every reader below takes the JSON path
   of the object it reads, so an error names the key or the span it
   stopped at.  [meanMs] and [e2eMs] are derived values and are not
   read back. *)

let ( let* ) = Result.bind
let at path k = if path = "" then k else path ^ "." ^ k

let read what conv path k j =
  match Option.bind (Json.member k j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or not %s" (at path k) what)

let int_at = read "an integer" (function Json.Int n -> Some n | _ -> None)
let bool_at = read "a boolean" (function Json.Bool b -> Some b | _ -> None)
let float_at = read "a number" (function Json.Float f -> Some f | _ -> None)
let obj_at = read "an object" (function Json.Obj _ as o -> Some o | _ -> None)
let arr_at = read "an array" (function Json.Arr l -> Some l | _ -> None)

let list_at f path k j =
  let* l = arr_at path k j in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
        let* v = f (Printf.sprintf "%s[%d]" (at path k) i) x in
        go (i + 1) (v :: acc) rest
  in
  go 0 [] l

let blame_at path j =
  let* fleet_queue = int_at path "fleetQueueCycles" j in
  let* backoff = int_at path "backoffCycles" j in
  let* queue = int_at path "queueCycles" j in
  let* gc_queue = int_at path "gcQueueCycles" j in
  let* service = int_at path "serviceCycles" j in
  let* gc_service = int_at path "gcServiceCycles" j in
  Ok { Span.fleet_queue; backoff; queue; gc_queue; service; gc_service }

(* The conservation identity, re-checked on the artefact: the blame
   object at [path] must sum to its owner's [e2eCycles]. *)
let conserved path b e2e =
  let sum = Span.blame_total b in
  if sum = e2e then Ok ()
  else
    Error
      (Printf.sprintf "%s: components sum to %d cycles but e2eCycles is %d"
         path sum e2e)

let span_at path j =
  let* rid = int_at path "rid" j in
  let* shard = int_at path "shard" j in
  let* first = int_at path "firstChoice" j in
  let* epoch = int_at path "epoch" j in
  let* attempts = int_at path "attempts" j in
  let* hedged = bool_at path "hedged" j in
  let* hedge_win = bool_at path "hedgeWin" j in
  let* enqueue = int_at path "enqueueCycles" j in
  let* start = int_at path "startCycles" j in
  let* finish = int_at path "finishCycles" j in
  let* e2e = int_at path "e2eCycles" j in
  let* bj = obj_at path "blame" j in
  let* blame = blame_at (at path "blame") bj in
  let* () = conserved (at path "blame") blame e2e in
  let route = { Span.rid; first; shard; epoch; attempts; hedged; hedge_win } in
  Ok { Span.route; enqueue; start; finish; blame }

let read_spans j =
  let* bj = obj_at "" "blame" j in
  let* count = int_at "blame" "count" bj in
  let* sum = blame_at "blame" bj in
  let* sum_e2e = int_at "blame" "e2eCycles" bj in
  let* () = conserved "blame" sum sum_e2e in
  let* cycles_per_ms = float_at "blame" "cyclesPerMs" bj in
  let* worst = list_at span_at "" "tails" j in
  let* exemplars =
    list_at
      (fun path s ->
        let* d = int_at path "decade" s in
        let* span = span_at path s in
        Ok (d, span))
      "" "exemplars" j
  in
  Ok { Span.count; sum; sum_e2e; worst; exemplars; cycles_per_ms }

(* ---------------------- counts and latency ------------------------ *)

let completed_per_s ~ran_ms (tot : Server.totals) =
  if ran_ms <= 0.0 then 0.0
  else float_of_int tot.Server.completed /. (ran_ms /. 1000.0)

let counts_json ~ran_ms (tot : Server.totals) =
  [
    ( "counts",
      Json.Obj
        [
          ("arrived", Json.Int tot.Server.arrived);
          ("admitted", Json.Int tot.Server.admitted);
          ("shedFull", Json.Int tot.Server.shed_full);
          ("shedThrottled", Json.Int tot.Server.shed_throttled);
          ("timedOut", Json.Int tot.Server.timed_out);
          ("completed", Json.Int tot.Server.completed);
          ("sloViolations", Json.Int tot.Server.slo_violations);
          ("maxQueueDepth", Json.Int tot.Server.max_depth);
        ] );
    ("completedPerS", Json.Float (completed_per_s ~ran_ms tot));
    ("sloAttainment", Json.Float (Server.slo_attainment tot));
  ]

let latency_json (tot : Server.totals) =
  let lat = tot.Server.lat in
  ( "latencyMs",
    Json.Obj
      [
        ("e2e", hist_json (Latency.e2e lat));
        ("queueing", hist_json (Latency.queueing lat));
        ("service", hist_json (Latency.service lat));
        ("gcInflation", hist_json (Latency.gc lat));
      ] )
  :: spans_json tot.Server.spans

let to_json (cfg : Server.cfg) ~ran_ms (tot : Server.totals) =
  Json.Obj
    ([
      ("schema", Json.Str schema);
      ("ratePerS", Json.Float cfg.Server.rate_per_s);
      ("arrival", arrival_json cfg);
      ("queueCap", Json.Int cfg.Server.queue_cap);
      ("workers", Json.Int cfg.Server.workers);
      ("timeoutMs", Json.Float cfg.Server.timeout_ms);
      ("sloMs", Json.Float cfg.Server.slo_ms);
      ("sloTarget", Json.Float cfg.Server.slo_target);
      ("throttleHi", Json.Int cfg.Server.throttle_hi);
      ("throttleLo", Json.Int cfg.Server.throttle_lo);
      ("ranMs", Json.Float ran_ms);
    ]
    @ counts_json ~ran_ms tot
    @ latency_json tot)

(* The mean blame decomposition plus the worst span's causal chain. *)
let blame_text buf (sum : Span.summary) =
  if sum.Span.count > 0 then begin
    let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let ms = ms_of ~cycles_per_ms:sum.Span.cycles_per_ms in
    let mean c = ms c /. float_of_int sum.Span.count in
    let b = sum.Span.sum in
    pf
      "  blame (mean ms over %d): e2e %.3f = fleet-q %.3f + backoff %.3f + \
       queue %.3f + gc-queue %.3f + service %.3f + gc-service %.3f\n"
      sum.Span.count (mean sum.Span.sum_e2e)
      (mean b.Span.fleet_queue)
      (mean b.Span.backoff) (mean b.Span.queue) (mean b.Span.gc_queue)
      (mean b.Span.service)
      (mean b.Span.gc_service);
    match sum.Span.worst with
    | [] -> ()
    | worst :: _ ->
        let r = worst.Span.route in
        pf
          "  worst span: rid %d via shard %d (first choice %d, epoch %d, %d \
           retries%s) e2e %.3f ms = backoff %.3f + queue %.3f + gc-queue %.3f \
           + service %.3f + gc-service %.3f\n"
          r.Span.rid r.Span.shard r.Span.first r.Span.epoch r.Span.attempts
          (if r.Span.hedge_win then ", hedge won"
           else if r.Span.hedged then ", hedged"
           else "")
          (ms (Span.e2e_cycles worst))
          (ms worst.Span.blame.Span.backoff)
          (ms worst.Span.blame.Span.queue)
          (ms worst.Span.blame.Span.gc_queue)
          (ms worst.Span.blame.Span.service)
          (ms worst.Span.blame.Span.gc_service)
  end

let latency_text buf (tot : Server.totals) =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let lat = tot.Server.lat in
  pf "  %-12s %8s %8s %8s %8s %8s %8s\n" "latency (ms)" "mean" "p50" "p95"
    "p99" "p99.9" "max";
  let row name h =
    let v p = Histogram.percentile h p in
    pf "  %-12s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n" name (Histogram.mean h)
      (v 50.0) (v 95.0) (v 99.0) (v 99.9)
      (if Histogram.count h = 0 then 0.0 else Histogram.max h)
  in
  row "end-to-end" (Latency.e2e lat);
  row "queueing" (Latency.queueing lat);
  row "service" (Latency.service lat);
  row "gc-inflation" (Latency.gc lat);
  blame_text buf tot.Server.spans

let text (cfg : Server.cfg) ~ran_ms (tot : Server.totals) =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "server: %s arrivals at %.0f req/s, %d workers, queue %d, %.1f ms run\n"
    (Arrival.kind_name cfg.Server.arrival)
    cfg.Server.rate_per_s cfg.Server.workers cfg.Server.queue_cap ran_ms;
  pf
    "  arrived %d  admitted %d  completed %d (%.0f/s)  shed %d+%d  \
     timed-out %d  max-depth %d\n"
    tot.Server.arrived tot.Server.admitted tot.Server.completed
    (completed_per_s ~ran_ms tot)
    tot.Server.shed_full tot.Server.shed_throttled tot.Server.timed_out
    tot.Server.max_depth;
  if cfg.Server.slo_ms > 0.0 then
    pf "  SLO %.1f ms: attainment %.4f (target %.4f), %d violations\n"
      cfg.Server.slo_ms
      (Server.slo_attainment tot)
      cfg.Server.slo_target tot.Server.slo_violations;
  latency_text b tot;
  Buffer.contents b

let validate s =
  let* j = Json.parse s in
  match Json.member "schema" j with
  | Some (Json.Str v) when v = schema ->
      let* _ = read_spans j in
      Ok j
  | Some (Json.Str v) ->
      Error (Printf.sprintf "schema mismatch: expected %s, got %s" schema v)
  | _ -> Error "missing schema tag"
