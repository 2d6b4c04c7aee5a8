(* Fleet chaos scenarios crossed with routing policies.

   Every cell replays the *same* fleet arrival stream (the cluster
   draws it before routing), injects one deterministic chaos scenario,
   and measures what the degradation ladder salvages: availability
   (completed fraction of everything drawn), the fleet p99.9 with retry
   backoff folded into end-to-end latency, balancer-visible
   time-to-recover, and what was lost anyway.

   Expected shape: round-robin and least-queue reroute around a dark
   shard almost for free (the other shards absorb 1/N extra load), so
   availability stays near the crash-free share and TTR is one epoch.
   Consistent-hash must remap the victim's vnode arcs; its retried and
   redirected counts are where failover work concentrates, and
   ring-flap — the victim leaving and rejoining repeatedly — is its
   worst case because every flap re-routes the same keyed sessions. *)

module Histogram = Cgc_util.Histogram
module Table = Cgc_util.Table
module Server = Cgc_server.Server
module Latency = Cgc_server.Latency
module Balancer = Cgc_cluster.Balancer
module Cluster = Cgc_cluster.Cluster
module Cluster_fault = Cgc_fault.Cluster_fault

let run () =
  Common.hdr "Fleet chaos — scenarios x routing policies, one arrival stream";
  let shards = if Common.quick () then 4 else 8 in
  let rate = if Common.quick () then 8_000.0 else 16_000.0 in
  let ms = if Common.quick () then 800.0 else 2000.0 in
  let scenarios = None :: List.map Option.some Cluster_fault.all in
  let results =
    List.concat_map
      (fun chaos ->
        List.map
          (fun policy ->
            let cfg =
              Cluster.cfg ~shards ~policy ~rate_per_s:rate ~slo_ms:50.0
                ~heap_mb:16.0 ~ms ?chaos ()
            in
            (chaos, policy, Cluster.run cfg))
          Balancer.all_policies)
      scenarios
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "(%d shards, %.0f req/s fleet, %.0f ms; availability over all \
            drawn arrivals, latencies in ms)"
           shards rate ms)
      ~header:
        [ "scenario"; "policy"; "avail"; "p99.9"; "ttr ms"; "lost";
          "retried"; "redir"; "shed" ]
  in
  List.iter
    (fun (chaos, policy, r) ->
      let tot = Cluster.fleet_totals r in
      let e2e = Latency.e2e tot.Server.lat in
      let c = r.Cluster.chaos in
      Table.add_row t
        [ (match chaos with
          | None -> "none"
          | Some sc -> Cluster_fault.to_name sc);
          Balancer.policy_name policy;
          Printf.sprintf "%.4f" (Cluster.availability r);
          Printf.sprintf "%.2f" (Histogram.percentile e2e 99.9);
          (match c.Cluster.ttr_ms with
          | Some ttr -> Printf.sprintf "%.0f" ttr
          | None -> "-");
          string_of_int
            (Cluster.lost_crashed r + c.Cluster.lost_unroutable);
          string_of_int c.Cluster.retried;
          string_of_int c.Cluster.redirected;
          string_of_int
            (tot.Server.shed_full + tot.Server.shed_throttled
           + c.Cluster.shed_fleet) ])
    results;
  Table.print t;
  let find sc policy =
    List.find_opt
      (fun (c, p, _) -> c = Some sc && p = policy)
      results
  in
  (match
     ( find Cluster_fault.Ring_flap Balancer.Consistent_hash,
       find Cluster_fault.Ring_flap Balancer.Least_queue )
   with
  | Some (_, _, ch), Some (_, _, lq) ->
      Printf.printf
        "Under ring-flap, consistent-hash retried %d requests and \
         redirected %d (every flap\nremaps the victim's arcs) against \
         least-queue's %d/%d — and both hold availability\nat %.4f or \
         better: the reroute-retry rungs of the ladder absorb a \
         flapping shard\neither way.\n"
        ch.Cluster.chaos.Cluster.retried
        ch.Cluster.chaos.Cluster.redirected
        lq.Cluster.chaos.Cluster.retried
        lq.Cluster.chaos.Cluster.redirected
        (Stdlib.min (Cluster.availability ch) (Cluster.availability lq))
  | _ -> ());
  []
