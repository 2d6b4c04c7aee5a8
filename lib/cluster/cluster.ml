module Prng = Cgc_util.Prng
module Cost = Cgc_smp.Cost
module Server = Cgc_server.Server
module Arrival = Cgc_server.Arrival
module Latency = Cgc_server.Latency
module Span = Cgc_server.Span
module Cluster_fault = Cgc_fault.Cluster_fault

type cfg = {
  shards : int;
  policy : Balancer.policy;
  rate_per_s : float;
  server : Server.cfg;
  service_est_ms : float;
  bin_ms : float;
  gc : Cgc_core.Config.t;
  heap_mb : float;
  ncpus : int;
  seed : int;
  ms : float;
  trace : bool;
  trace_ring : int;
  chaos : Cluster_fault.scenario option;
  chaos_seed : int;
  epoch_ms : float;
  retries : int;
  retry_base_ms : float;
  hedge_margin : float;
  fleet_throttle_frac : float;
  give_up : int;
}

let cfg ?(shards = 4) ?(policy = Balancer.Round_robin)
    ?(arrival = Arrival.Poisson) ?(queue_cap = 256) ?(workers = 4)
    ?(timeout_ms = 0.0) ?(slo_ms = 0.0) ?(slo_target = 0.999)
    ?(throttle_hi = 0) ?(throttle_lo = 0) ?(service_est_ms = 0.12)
    ?(bin_ms = 10.0) ?(gc = Cgc_core.Config.default) ?(heap_mb = 24.0)
    ?(ncpus = 4) ?(seed = 1) ?(ms = 2000.0) ?(trace = false)
    ?(trace_ring = 1 lsl 16) ?chaos ?(chaos_seed = 1) ?epoch_ms ?(retries = 3)
    ?(retry_base_ms = 0.25) ?(hedge_margin = 0.0)
    ?(fleet_throttle_frac = 0.5) ?(give_up = 100) ~rate_per_s () =
  if shards < 1 then invalid_arg "Cluster.cfg: shards < 1";
  if service_est_ms <= 0.0 then
    invalid_arg "Cluster.cfg: service_est_ms must be positive";
  if bin_ms <= 0.0 then invalid_arg "Cluster.cfg: bin_ms must be positive";
  if ms <= 0.0 then invalid_arg "Cluster.cfg: ms must be positive";
  let epoch_ms = match epoch_ms with Some e -> e | None -> bin_ms in
  if epoch_ms <= 0.0 then invalid_arg "Cluster.cfg: epoch_ms must be positive";
  if retries < 0 then invalid_arg "Cluster.cfg: retries < 0";
  if retry_base_ms <= 0.0 then
    invalid_arg "Cluster.cfg: retry_base_ms must be positive";
  if fleet_throttle_frac < 0.0 || fleet_throttle_frac > 1.0 then
    invalid_arg "Cluster.cfg: fleet_throttle_frac outside [0, 1]";
  if give_up < 1 then invalid_arg "Cluster.cfg: give_up < 1";
  let server =
    Server.cfg ~arrival ~queue_cap ~workers ~timeout_ms ~slo_ms ~slo_target
      ~throttle_hi ~throttle_lo
      ~rate_per_s:(rate_per_s /. float_of_int shards)
      ()
  in
  {
    shards;
    policy;
    rate_per_s;
    server;
    service_est_ms;
    bin_ms;
    gc;
    heap_mb;
    ncpus;
    seed;
    ms;
    trace;
    trace_ring;
    chaos;
    chaos_seed;
    epoch_ms;
    retries;
    retry_base_ms;
    hedge_margin;
    fleet_throttle_frac;
    give_up;
  }

(* Shard seeds fan out from the fleet seed with a large odd stride, so
   neighbouring shards' SplitMix64 roots are far apart; +1 keeps shard 0
   distinct from a plain [cgcsim serve] run at the same seed.  A cold
   rejoin is a new process: its incarnation index shifts the seed again
   so the restarted VM draws fresh streams. *)
let shard_seed (cfg : cfg) k = cfg.seed + ((k + 1) * 0x632bd5)
let incarnation_seed (cfg : cfg) k inc = shard_seed cfg k + (inc * 0x2545f49)

type chaos_info = {
  plan : Cluster_fault.plan;
  drawn : int;
  retried : int;
  redirected : int;
  hedge_wins : int;
  shed_fleet : int;
  lost_unroutable : int;
  epoch_cfg_ms : float;
  digests : int64 array;
  live_epochs : int array;
  ttr_ms : float option;
}

(* Fleet-level per-bin counters for the merged timeline: arrivals the
   front end placed on some shard, shed at the fleet door, or lost as
   unroutable, bucketed by [cfg.bin_ms] over the fleet horizon. *)
type fleet_bins = { placed : int array; shed : int array; lost : int array }

type result = {
  cfg : cfg;
  shards : Shard.result array;
  chaos : chaos_info;
  bins : fleet_bins;
}

type unavailable = {
  at_ms : float;
  scenario : string;
  live : int;
  of_shards : int;
  placed : int;
  lost : int;
  retries_spent : int;
}

exception Fleet_unavailable of unavailable

let unavailable_to_string u =
  Printf.sprintf
    "fleet unavailable at %.1f ms under %s: %d/%d shards visible, %d lost \
     after %d retries (%d requests placed before giving up)"
    u.at_ms u.scenario u.live u.of_shards u.lost u.retries_spent u.placed

let () =
  Printexc.register_printer (function
    | Fleet_unavailable u -> Some (unavailable_to_string u)
    | _ -> None)

(* Phase 1a: the fleet arrival stream, drawn once up to the horizon. *)
let fleet_arrivals (cfg : cfg) ~cycles_per_ms ~rng =
  let horizon = int_of_float (cfg.ms *. float_of_int cycles_per_ms) in
  let arr =
    Arrival.create cfg.server.Server.arrival ~rate_per_s:cfg.rate_per_s
      ~cycles_per_ms ~rng
  in
  let acc = ref [] in
  let n = ref 0 in
  let rec go t =
    if t <= horizon then begin
      acc := t :: !acc;
      incr n;
      go (Arrival.next arr)
    end
  in
  go (Arrival.next arr);
  let ts = Array.make !n 0 in
  let i = ref (!n - 1) in
  List.iter
    (fun t ->
      ts.(!i) <- t;
      decr i)
    !acc;
  ts

(* Phase 1b under chaos: route arrival-by-arrival through the epoch
   router, walking the degradation ladder per request:
   reroute (the router skips balancer-visibly dark shards) -> retry
   with doubling backoff when the target turns out to be dark ->
   fleet-wide admission throttle once the visible live fraction falls
   to [fleet_throttle_frac] -> [Fleet_unavailable] after [give_up]
   unroutable requests.  Everything here is serial and a function of
   (cfg, plan), so the produced slices are identical at any pool
   size. *)
type placement =
  | Placed of { shard : int; at : int; pre : int; route : Span.route }
  | Shed_fleet
  | Lost

let route_chaos (cfg : cfg) ~plan ~cycles_per_ms ~key_rng ts =
  let nshards = cfg.shards in
  let horizon = int_of_float (cfg.ms *. float_of_int cycles_per_ms) in
  let epoch_cycles =
    Int.max 1 (int_of_float (cfg.epoch_ms *. float_of_int cycles_per_ms))
  in
  let nepochs =
    Int.max 1
      (int_of_float (Float.ceil (cfg.ms /. cfg.epoch_ms)))
  in
  let router =
    Balancer.router cfg.policy ~nshards ~workers:cfg.server.Server.workers
      ~service_est_ms:cfg.service_est_ms ~cycles_per_ms
  in
  let digests = Array.make nepochs 0L in
  let live_epochs = Array.make nepochs nshards in
  let live = Array.make nshards true in
  let cur_epoch = ref (-1) in
  let enter_epoch e =
    let boundary = e * epoch_cycles in
    for s = 0 to nshards - 1 do
      live.(s) <- Cluster_fault.live_at plan ~shard:s boundary
    done;
    Balancer.set_live router live;
    digests.(e) <- Balancer.digest router;
    live_epochs.(e) <- Balancer.nlive router;
    cur_epoch := e
  in
  let advance_to t =
    let e = Int.min (nepochs - 1) (t / epoch_cycles) in
    while !cur_epoch < e do
      enter_epoch (!cur_epoch + 1)
    done
  in
  enter_epoch 0;
  let n = Array.length ts in
  let out = Array.make n Lost in
  let retried = ref 0 in
  let redirected = ref 0 in
  let hedge_wins = ref 0 in
  let shed_fleet = ref 0 in
  let lost = ref 0 in
  let placed = ref 0 in
  let credit = ref 0.0 in
  let avoid = Array.make nshards false in
  let give_up_check at =
    if !lost >= cfg.give_up then
      raise
        (Fleet_unavailable
           {
             at_ms = float_of_int at /. float_of_int cycles_per_ms;
             scenario =
               (match Cluster_fault.scenario plan with
               | Some s -> Cluster_fault.to_name s
               | None -> "none");
             live = Balancer.nlive router;
             of_shards = nshards;
             placed = !placed;
             lost = !lost;
             retries_spent = !retried;
           })
  in
  for i = 0 to n - 1 do
    let t0 = ts.(i) in
    advance_to t0;
    (* Session keys are drawn per arrival regardless of the request's
       fate, so the key stream stays aligned across scenarios. *)
    let key = Balancer.mix64 (Prng.next key_rng) in
    let nlive = Balancer.nlive router in
    let throttled =
      nlive < nshards
      && float_of_int nlive /. float_of_int nshards <= cfg.fleet_throttle_frac
      &&
      let frac = float_of_int nlive /. float_of_int nshards in
      (credit := !credit +. frac;
       if !credit >= 1.0 then begin
         credit := !credit -. 1.0;
         false
       end
       else true)
    in
    if throttled then begin
      incr shed_fleet;
      out.(i) <- Shed_fleet
    end
    else begin
      Array.fill avoid 0 nshards false;
      let tcur = ref t0 and pre = ref 0 and attempt = ref 0 in
      let first = ref (-1) in
      let hedged = ref false in
      let finished = ref false in
      while not !finished do
        match Balancer.pick router ~now:!tcur ~key ~avoid with
        | None ->
            incr lost;
            out.(i) <- Lost;
            finished := true;
            give_up_check !tcur
        | Some cand ->
            let cand =
              if !attempt = 0 then
                match
                  Balancer.hedge_better router ~primary:cand
                    ~margin:cfg.hedge_margin
                with
                | Some alt ->
                    hedged := true;
                    alt
                | None -> cand
              else cand
            in
            if !first < 0 then first := cand;
            if Cluster_fault.live_at plan ~shard:cand !tcur then begin
              let hedge_win = !hedged && cand = !first && !attempt = 0 in
              if hedge_win then incr hedge_wins;
              if cand <> !first then incr redirected;
              Balancer.note_routed router cand;
              let route =
                {
                  Span.rid = i;
                  first = !first;
                  shard = cand;
                  epoch = !cur_epoch;
                  attempts = !attempt;
                  hedged = !hedged;
                  hedge_win;
                }
              in
              out.(i) <- Placed { shard = cand; at = !tcur; pre = !pre; route };
              incr placed;
              finished := true
            end
            else begin
              avoid.(cand) <- true;
              if !attempt >= cfg.retries then begin
                incr lost;
                out.(i) <- Lost;
                finished := true;
                give_up_check !tcur
              end
              else begin
                incr retried;
                let backoff =
                  int_of_float
                    (cfg.retry_base_ms
                    *. float_of_int (1 lsl !attempt)
                    *. float_of_int cycles_per_ms)
                in
                tcur := !tcur + backoff;
                pre := !pre + backoff;
                incr attempt;
                if !tcur > horizon then begin
                  incr lost;
                  out.(i) <- Lost;
                  finished := true;
                  give_up_check !tcur
                end
              end
            end
      done
    end
  done;
  (* Trailing epochs with no arrivals still appear in the digest
     history — a recovery the traffic never exercised is still a
     recovery. *)
  while !cur_epoch < nepochs - 1 do
    enter_epoch (!cur_epoch + 1)
  done;
  ( out,
    {
      plan;
      drawn = n;
      retried = !retried;
      redirected = !redirected;
      hedge_wins = !hedge_wins;
      shed_fleet = !shed_fleet;
      lost_unroutable = !lost;
      epoch_cfg_ms = cfg.epoch_ms;
      digests;
      live_epochs;
      ttr_ms = None (* filled by [run] *);
    } )

(* Balancer-visible time-to-recover: from the plan's first onset to the
   start of the first epoch after the last degraded one.  When the
   balancer never saw degradation (brownout), fall back to the plan's
   own recovery point. *)
let time_to_recover ~plan ~live_epochs ~epoch_ms ~shards ~cycles_per_ms =
  match Cluster_fault.first_onset plan with
  | None -> None
  | Some onset ->
      let onset_ms = float_of_int onset /. float_of_int cycles_per_ms in
      let last_degraded = ref (-1) in
      Array.iteri
        (fun e (l : int) -> if l < shards then last_degraded := e)
        live_epochs;
      if !last_degraded >= 0 then
        if !last_degraded = Array.length live_epochs - 1 then None
        else Some ((float_of_int (!last_degraded + 1) *. epoch_ms) -. onset_ms)
      else
        (match Cluster_fault.recovered_at plan with
        | None -> None
        | Some r ->
            Some ((float_of_int r /. float_of_int cycles_per_ms) -. onset_ms))

let run (cfg : cfg) =
  let cycles_per_ms = Cost.default.Cost.cycles_per_ms in
  let horizon = int_of_float (cfg.ms *. float_of_int cycles_per_ms) in
  (* An own PRNG root, offset from the fleet seed; one split stream for
     the arrival process, one for consistent-hash session keys, so the
     arrival stream is identical across routing policies. *)
  let root = Prng.create (cfg.seed + 0xc1a57e5) in
  let arr_rng = Prng.split root in
  let key_rng = Prng.split root in
  let ts = fleet_arrivals cfg ~cycles_per_ms ~rng:arr_rng in
  let plan =
    match cfg.chaos with
    | None -> Cluster_fault.none ~horizon
    | Some scenario ->
        Cluster_fault.make ~scenario ~seed:cfg.chaos_seed ~shards:cfg.shards
          ~horizon
  in
  let placements, chaos = route_chaos cfg ~plan ~cycles_per_ms ~key_rng ts in
  let chaos =
    {
      chaos with
      ttr_ms =
        time_to_recover ~plan ~live_epochs:chaos.live_epochs
          ~epoch_ms:cfg.epoch_ms ~shards:cfg.shards ~cycles_per_ms;
    }
  in
  (* Phase 1c: split placements into per-incarnation scripts.  Retry
     backoff can reorder placements within a shard, so each script is
     re-sorted by effective arrival time (stable, so simultaneous
     arrivals keep front-end order). *)
  let scenario_idx =
    match Cluster_fault.scenario plan with
    | Some s -> Cluster_fault.index s
    | None -> 0
  in
  let jobs = ref [] in
  for k = cfg.shards - 1 downto 0 do
    let incs = Array.of_list (Cluster_fault.incarnations plan ~shard:k) in
    let buckets = Array.make (Array.length incs) [] in
    let bucket_of t =
      let b = ref (Array.length incs - 1) in
      Array.iteri
        (fun j (inc : Cluster_fault.incarnation) ->
          if t >= inc.start && t < inc.stop && !b > j then b := j)
        incs;
      !b
    in
    Array.iter
      (fun p ->
        match p with
        | Placed { shard; at; pre; route } when shard = k ->
            let j = bucket_of at in
            buckets.(j) <- (at, pre, route) :: buckets.(j)
        | _ -> ())
      placements;
    (* Both loops run high-to-low so consing onto [jobs] leaves the
       final array ordered by (shard id, incarnation). *)
    for j = Array.length incs - 1 downto 0 do
      let inc = incs.(j) in
        let entries = Array.of_list (List.rev buckets.(j)) in
        (* stable: equal effective times keep front-end order *)
        let order = Array.init (Array.length entries) Fun.id in
        Array.sort
          (fun a b ->
            let ta, _, _ = entries.(a) and tb, _, _ = entries.(b) in
            if ta <> tb then compare ta tb else compare a b)
          order;
        let narr = Array.length entries in
        let arrivals = Array.make narr 0 in
        let delays = Array.make narr 0 in
        let routes = Array.make narr (Span.local_route 0) in
        Array.iteri
          (fun pos o ->
            let at, pre, route = entries.(o) in
            arrivals.(pos) <- at - inc.start;
            delays.(pos) <- pre;
            routes.(pos) <- route)
          order;
        let run_cycles = Int.min inc.stop horizon - inc.start in
        let start_ms =
          float_of_int inc.start /. float_of_int cycles_per_ms
        in
        let run_ms = float_of_int run_cycles /. float_of_int cycles_per_ms in
        let brownout =
          match Cluster_fault.brownout plan ~shard:k with
          | None -> None
          | Some (b0, b1, f) ->
              let l0 = Int.max 0 (b0 - inc.start) in
              let l1 = Int.min run_cycles (b1 - inc.start) in
              if l1 > l0 then Some (l0, l1, f) else None
        in
        let marks =
          (if inc.crashed then [ (run_cycles, scenario_idx) ] else [])
          @ (if inc.index > 0 then [ (0, scenario_idx) ] else [])
          @
          match Cluster_fault.brownout plan ~shard:k with
          | Some (b0, b1, _) when b0 < inc.stop && b1 > inc.start ->
              [ (Int.max 0 (b0 - inc.start), scenario_idx) ]
          | _ -> []
        in
        let scfg : Shard.cfg =
          {
            Shard.id = k;
            seed = incarnation_seed cfg k inc.index;
            heap_mb = cfg.heap_mb;
            ncpus = cfg.ncpus;
            gc = cfg.gc;
            trace = cfg.trace;
            trace_ring = cfg.trace_ring;
            server = cfg.server;
            bin_ms = cfg.bin_ms;
            ms = run_ms;
            incarnation = inc.index;
            start_ms;
            fleet_ms = cfg.ms;
            crashed = inc.crashed;
            brownout;
            marks;
          }
        in
        jobs := (scfg, arrivals, delays, routes) :: !jobs
    done
  done;
  let jobs = Array.of_list !jobs in
  let results =
    Dpool.map
      (fun (scfg, arrivals, delays, routes) ->
        Shard.run scfg ~arrivals ~delays ~routes ())
      jobs
  in
  (* Fleet-level timeline bins, computed serially from the placements:
     shed/lost arrivals bucket at their front-end arrival stamp, placed
     ones at their (possibly backed-off) placement stamp. *)
  let nbins = Shard.nbins ~ms:cfg.ms ~bin_ms:cfg.bin_ms in
  let bin_cycles =
    Int.max 1 (int_of_float (cfg.bin_ms *. float_of_int cycles_per_ms))
  in
  let bin t = Int.min (nbins - 1) (Int.max 0 (t / bin_cycles)) in
  let bins =
    {
      placed = Array.make nbins 0;
      shed = Array.make nbins 0;
      lost = Array.make nbins 0;
    }
  in
  Array.iteri
    (fun i p ->
      match p with
      | Placed { at; _ } ->
          let b = bin at in
          bins.placed.(b) <- bins.placed.(b) + 1
      | Shed_fleet ->
          let b = bin ts.(i) in
          bins.shed.(b) <- bins.shed.(b) + 1
      | Lost ->
          let b = bin ts.(i) in
          bins.lost.(b) <- bins.lost.(b) + 1)
    placements;
  { cfg; shards = results; chaos; bins }

let fleet_totals (r : result) =
  Array.fold_left
    (fun (acc : Server.totals) (s : Shard.result) ->
      let t = s.Shard.totals in
      {
        Server.arrived = acc.Server.arrived + t.Server.arrived;
        admitted = acc.Server.admitted + t.Server.admitted;
        shed_full = acc.Server.shed_full + t.Server.shed_full;
        shed_throttled = acc.Server.shed_throttled + t.Server.shed_throttled;
        timed_out = acc.Server.timed_out + t.Server.timed_out;
        completed = acc.Server.completed + t.Server.completed;
        slo_violations = acc.Server.slo_violations + t.Server.slo_violations;
        max_depth = Int.max acc.Server.max_depth t.Server.max_depth;
        lat = Latency.merge acc.Server.lat t.Server.lat;
        spans = Span.merge acc.Server.spans t.Server.spans;
      })
    {
      Server.arrived = 0;
      admitted = 0;
      shed_full = 0;
      shed_throttled = 0;
      timed_out = 0;
      completed = 0;
      slo_violations = 0;
      max_depth = 0;
      lat = Latency.create ();
      spans = Span.empty_summary;
    }
    r.shards

let lost_crashed (r : result) =
  Array.fold_left
    (fun acc (s : Shard.result) ->
      if s.Shard.crashed then acc + s.Shard.unfinished else acc)
    0 r.shards

let unarrived (r : result) =
  Array.fold_left
    (fun acc (s : Shard.result) ->
      acc + s.Shard.routed - s.Shard.totals.Server.arrived)
    0 r.shards

let availability (r : result) =
  if r.chaos.drawn = 0 then 1.0
  else
    float_of_int (fleet_totals r).Server.completed
    /. float_of_int r.chaos.drawn

let slo_attainment r = Server.slo_attainment (fleet_totals r)

let slo_breached (r : result) =
  r.cfg.server.Server.slo_ms > 0.0
  && slo_attainment r < r.cfg.server.Server.slo_target
