module Json = Cgc_prof.Json
module Server = Cgc_server.Server
module Server_report = Cgc_server.Report
module Cluster_fault = Cgc_fault.Cluster_fault

let schema = "cgcsim-cluster-v3"

(* ------------------------------------------------------------------ *)
(* Derived views                                                       *)

type spread = { min : int; max : int; mean : float; cv : float }

let spread_of xs =
  let n = Array.length xs in
  if n = 0 then { min = 0; max = 0; mean = 0.0; cv = 0.0 }
  else begin
    let mn = ref xs.(0) and mx = ref xs.(0) and sum = ref 0 in
    Array.iter
      (fun x ->
        if x < !mn then mn := x;
        if x > !mx then mx := x;
        sum := !sum + x)
      xs;
    let mean = float_of_int !sum /. float_of_int n in
    let var =
      Array.fold_left
        (fun acc x ->
          let d = float_of_int x -. mean in
          acc +. (d *. d))
        0.0 xs
      /. float_of_int n
    in
    let cv = if mean = 0.0 then 0.0 else sqrt var /. mean in
    { min = !mn; max = !mx; mean; cv }
  end

type phenomena = {
  bins : int;
  co_max_stopped : int;  (** most shards stopped in one bin *)
  co_frac : float;  (** fraction of bins with >= 2 shards stopped *)
  shed_total : int;
  shed_peak_bin : int;  (** most fleet sheds in one bin *)
  shed_max_shards : int;  (** most shards shedding in one bin *)
  shed_frac : float;  (** fraction of bins with any shed *)
}

let phenomena (r : Cluster.result) =
  (* Incarnations of one shard never overlap in time, but a short dark
     window can put two of them inside one boundary bin — merge per
     shard id first so "shards stopped" counts shards, not VMs. *)
  let bins =
    Array.fold_left
      (fun acc s -> Stdlib.max acc (Array.length s.Shard.stopped_ms))
      1 r.Cluster.shards
  in
  let nids = r.Cluster.cfg.Cluster.shards in
  let stopped_by_id = Array.init nids (fun _ -> Array.make bins 0.0) in
  let sheds_by_id = Array.init nids (fun _ -> Array.make bins 0) in
  Array.iter
    (fun (s : Shard.result) ->
      let id = s.Shard.id in
      Array.iteri
        (fun b v -> stopped_by_id.(id).(b) <- stopped_by_id.(id).(b) +. v)
        s.Shard.stopped_ms;
      Array.iteri
        (fun b v -> sheds_by_id.(id).(b) <- sheds_by_id.(id).(b) + v)
        s.Shard.sheds)
    r.Cluster.shards;
  let shards =
    Array.init nids (fun id -> (stopped_by_id.(id), sheds_by_id.(id)))
  in
  let co_max = ref 0 and co_bins = ref 0 in
  let shed_total = ref 0
  and shed_peak = ref 0
  and shed_max_shards = ref 0
  and shed_bins = ref 0 in
  for b = 0 to bins - 1 do
    let stopped = ref 0 and shedding = ref 0 and bin_sheds = ref 0 in
    Array.iter
      (fun (stopped_ms, sheds) ->
        if b < Array.length stopped_ms && stopped_ms.(b) > 0.0 then
          incr stopped;
        if b < Array.length sheds && sheds.(b) > 0 then begin
          incr shedding;
          bin_sheds := !bin_sheds + sheds.(b)
        end)
      shards;
    if !stopped > !co_max then co_max := !stopped;
    if !stopped >= 2 then incr co_bins;
    shed_total := !shed_total + !bin_sheds;
    if !bin_sheds > !shed_peak then shed_peak := !bin_sheds;
    if !shedding > !shed_max_shards then shed_max_shards := !shedding;
    if !bin_sheds > 0 then incr shed_bins
  done;
  let frac n = float_of_int n /. float_of_int bins in
  {
    bins;
    co_max_stopped = !co_max;
    co_frac = frac !co_bins;
    shed_total = !shed_total;
    shed_peak_bin = !shed_peak;
    shed_max_shards = !shed_max_shards;
    shed_frac = frac !shed_bins;
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let spread_json s =
  Json.Obj
    [
      ("min", Json.Int s.min);
      ("max", Json.Int s.max);
      ("mean", Json.Float s.mean);
      ("cv", Json.Float s.cv);
    ]

let shard_json (cfg : Cluster.cfg) (s : Shard.result) =
  Json.Obj
    [
      ("id", Json.Int s.Shard.id);
      ("incarnation", Json.Int s.Shard.incarnation);
      ("seed", Json.Int s.Shard.seed);
      ("routed", Json.Int s.Shard.routed);
      ("startMs", Json.Float s.Shard.start_ms);
      ("runMs", Json.Float s.Shard.run_ms);
      ("crashed", Json.Bool s.Shard.crashed);
      ("unfinished", Json.Int s.Shard.unfinished);
      ("gcCycles", Json.Int s.Shard.gc_cycles);
      ("maxPauseMs", Json.Float s.Shard.max_pause_ms);
      ("droppedEvents", Json.Int s.Shard.dropped);
      ( "droppedByTid",
        Json.Arr
          (List.map
             (fun (tid, d) ->
               Json.Obj [ ("tid", Json.Int tid); ("dropped", Json.Int d) ])
             s.Shard.dropped_by_tid) );
      ( "server",
        Server_report.to_json cfg.Cluster.server ~ran_ms:s.Shard.run_ms
          s.Shard.totals );
    ]

let chaos_json (r : Cluster.result) =
  let c = r.Cluster.chaos in
  let plan = c.Cluster.plan in
  Json.Obj
    [
      ( "scenario",
        match Cluster_fault.scenario plan with
        | Some s -> Json.Str (Cluster_fault.to_name s)
        | None -> Json.Null );
      ("seed", Json.Int (Cluster_fault.seed plan));
      ("victim", Json.Int (Cluster_fault.victim plan));
      ("drawn", Json.Int c.Cluster.drawn);
      ("retried", Json.Int c.Cluster.retried);
      ("redirected", Json.Int c.Cluster.redirected);
      ("hedgeWins", Json.Int c.Cluster.hedge_wins);
      ("shedFleet", Json.Int c.Cluster.shed_fleet);
      ("lostUnroutable", Json.Int c.Cluster.lost_unroutable);
      ("lostCrashed", Json.Int (Cluster.lost_crashed r));
      ("unarrived", Json.Int (Cluster.unarrived r));
      ("availability", Json.Float (Cluster.availability r));
      ( "timeToRecoverMs",
        match c.Cluster.ttr_ms with
        | Some t -> Json.Float t
        | None -> Json.Float (-1.0) );
      ("epochMs", Json.Float c.Cluster.epoch_cfg_ms);
      ( "liveEpochs",
        Json.Arr
          (Array.to_list
             (Array.map (fun l -> Json.Int l) c.Cluster.live_epochs)) );
      ( "epochDigests",
        Json.Arr
          (Array.to_list
             (Array.map
                (fun d -> Json.Str (Printf.sprintf "%016Lx" d))
                c.Cluster.digests)) );
    ]

let to_json (r : Cluster.result) =
  let cfg = r.Cluster.cfg in
  let tot = Cluster.fleet_totals r in
  let ph = phenomena r in
  let per_shard f = Array.map f r.Cluster.shards in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("shards", Json.Int cfg.Cluster.shards);
      ("policy", Json.Str (Balancer.policy_name cfg.Cluster.policy));
      ("ratePerS", Json.Float cfg.Cluster.rate_per_s);
      ("sloMs", Json.Float cfg.Cluster.server.Server.slo_ms);
      ("sloTarget", Json.Float cfg.Cluster.server.Server.slo_target);
      ("ranMs", Json.Float cfg.Cluster.ms);
      ("binMs", Json.Float cfg.Cluster.bin_ms);
      ( "fleet",
        Json.Obj
          (Server_report.counts_json ~ran_ms:cfg.Cluster.ms tot
          @ ("availability", Json.Float (Cluster.availability r))
            :: Server_report.latency_json tot) );
      ( "balance",
        Json.Obj
          [
            ( "routed",
              spread_json (spread_of (per_shard (fun s -> s.Shard.routed))) );
            ( "completed",
              spread_json
                (spread_of
                   (per_shard (fun s -> s.Shard.totals.Server.completed))) );
          ] );
      ( "phenomena",
        Json.Obj
          [
            ("bins", Json.Int ph.bins);
            ( "coStopped",
              Json.Obj
                [
                  ("maxShardsStopped", Json.Int ph.co_max_stopped);
                  ("binsAtLeast2Frac", Json.Float ph.co_frac);
                ] );
            ( "shedStorm",
              Json.Obj
                [
                  ("totalSheds", Json.Int ph.shed_total);
                  ("peakBinSheds", Json.Int ph.shed_peak_bin);
                  ("maxShardsShedding", Json.Int ph.shed_max_shards);
                  ("binsWithShedsFrac", Json.Float ph.shed_frac);
                ] );
          ] );
      ("chaos", chaos_json r);
      ("perShard", Json.Arr (Array.to_list (per_shard (shard_json cfg))));
    ]

(* ------------------------------------------------------------------ *)
(* Text                                                                *)

let text (r : Cluster.result) =
  let cfg = r.Cluster.cfg in
  let tot = Cluster.fleet_totals r in
  let ph = phenomena r in
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "cluster: %d shards, %s routing, %.0f req/s fleet, %.1f ms run\n"
    cfg.Cluster.shards
    (Balancer.policy_name cfg.Cluster.policy)
    cfg.Cluster.rate_per_s cfg.Cluster.ms;
  pf "  %-7s %9s %9s %9s %9s %6s %9s\n" "shard" "routed" "completed" "shed"
    "timedout" "gc" "maxP(ms)";
  Array.iter
    (fun (s : Shard.result) ->
      let t = s.Shard.totals in
      let label =
        if s.Shard.incarnation = 0 then Printf.sprintf "%d" s.Shard.id
        else Printf.sprintf "%d.r%d" s.Shard.id s.Shard.incarnation
      in
      pf "  %-7s %9d %9d %9d %9d %6d %9.3f%s\n" label s.Shard.routed
        t.Server.completed
        (t.Server.shed_full + t.Server.shed_throttled)
        t.Server.timed_out s.Shard.gc_cycles s.Shard.max_pause_ms
        (if s.Shard.crashed then "  [crashed]" else ""))
    r.Cluster.shards;
  let routed = spread_of (Array.map (fun s -> s.Shard.routed) r.Cluster.shards)
  and completed =
    spread_of
      (Array.map (fun s -> s.Shard.totals.Server.completed) r.Cluster.shards)
  in
  pf "  balance: routed %d..%d (cv %.4f), completed %d..%d (cv %.4f)\n"
    routed.min routed.max routed.cv completed.min completed.max completed.cv;
  pf
    "  fleet: arrived %d  completed %d (%.0f/s)  shed %d+%d  timed-out %d  \
     max-depth %d\n"
    tot.Server.arrived tot.Server.completed
    (Server_report.completed_per_s ~ran_ms:cfg.Cluster.ms tot)
    tot.Server.shed_full tot.Server.shed_throttled tot.Server.timed_out
    tot.Server.max_depth;
  if cfg.Cluster.server.Server.slo_ms > 0.0 then
    pf "  fleet SLO %.1f ms: attainment %.4f (target %.4f), %d violations\n"
      cfg.Cluster.server.Server.slo_ms
      (Server.slo_attainment tot)
      cfg.Cluster.server.Server.slo_target tot.Server.slo_violations;
  pf
    "  phenomena (%d bins of %.0f ms): co-stopped max %d shards \
     (>=2 in %.1f%% of bins); sheds %d total, peak bin %d, max %d shards \
     shedding (%.1f%% of bins)\n"
    ph.bins cfg.Cluster.bin_ms ph.co_max_stopped
    (100.0 *. ph.co_frac)
    ph.shed_total ph.shed_peak_bin ph.shed_max_shards
    (100.0 *. ph.shed_frac);
  Server_report.latency_text b tot;
  (* Ring-drop warnings: a per-incarnation trace that lost events can
     under-report, so name every lossy (shard, incarnation, tid). *)
  Array.iter
    (fun (s : Shard.result) ->
      List.iter
        (fun (tid, d) ->
          pf
            "  WARNING: shard %d.r%d dropped %d events on tid %d (ring \
             overflow — raise --trace-ring)\n"
            s.Shard.id s.Shard.incarnation d tid)
        s.Shard.dropped_by_tid)
    r.Cluster.shards;
  let c = r.Cluster.chaos in
  (match Cluster_fault.scenario c.Cluster.plan with
  | None -> ()
  | Some sc ->
      pf
        "  chaos: %s (seed %d, victim shard %d) — availability %.4f, \
         retried %d, redirected %d, hedge-wins %d, fleet-shed %d, \
         unroutable %d, lost-in-crash %d\n"
        (Cluster_fault.to_name sc)
        (Cluster_fault.seed c.Cluster.plan)
        (Cluster_fault.victim c.Cluster.plan)
        (Cluster.availability r) c.Cluster.retried c.Cluster.redirected
        c.Cluster.hedge_wins c.Cluster.shed_fleet c.Cluster.lost_unroutable
        (Cluster.lost_crashed r);
      let distinct =
        let d = ref 1 in
        Array.iteri
          (fun i x -> if i > 0 && x <> c.Cluster.digests.(i - 1) then incr d)
          c.Cluster.digests;
        !d
      in
      pf
        "  epochs: %d of %.0f ms, %d routing-table changes, \
         time-to-recover %s\n"
        (Array.length c.Cluster.digests)
        c.Cluster.epoch_cfg_ms (distinct - 1)
        (match c.Cluster.ttr_ms with
        | Some t -> Printf.sprintf "%.0f ms" t
        | None -> "never"));
  Buffer.contents b

(* The reader for what [to_json] writes: the fleet block's and every
   embedded server report's spans, each through the server report's
   reader, and the ring drops summed over shards. *)
let read j =
  let ( let* ) = Result.bind in
  let spans path o =
    Result.map_error
      (fun e -> path ^ "." ^ e)
      (Server_report.read_spans (Option.value o ~default:Json.Null))
  in
  let* fleet = spans "fleet" (Json.member "fleet" j) in
  match Json.member "perShard" j with
  | Some (Json.Arr shards) ->
      let rec go i dropped = function
        | [] -> Ok (fleet, dropped)
        | s :: rest -> (
            let path = Printf.sprintf "perShard[%d]" i in
            let* _ = spans (path ^ ".server") (Json.member "server" s) in
            match Json.member "droppedEvents" s with
            | Some (Json.Int d) -> go (i + 1) (dropped + d) rest
            | _ -> Error (path ^ ".droppedEvents: missing or not an integer"))
      in
      go 0 0 shards
  | _ -> Error "perShard: missing or not an array"

let validate s =
  match Json.parse s with
  | Error e -> Error e
  | Ok j -> (
      match Json.member "schema" j with
      | Some (Json.Str v) when v = schema -> Result.map (fun _ -> j) (read j)
      | Some (Json.Str v) ->
          Error (Printf.sprintf "schema mismatch: expected %s, got %s" schema v)
      | _ -> Error "missing schema tag")
