(* Routing policies compared at equal fleet load.

   Every policy sees the *same* fleet arrival stream (the cluster draws
   it from a dedicated PRNG root before routing), so the only variable
   is which shard each request lands on.  Expected shape: round-robin
   and least-queue-depth spread load near-uniformly and their tails
   track a single shard's GC inflation; consistent-hash concentrates
   keyed sessions, so its routed-count CV is an order of magnitude
   higher and the overloaded shards' queueing delay pushes the fleet
   tail up — locality has a latency price, which is why you measure it
   before paying it. *)

module Histogram = Cgc_util.Histogram
module Table = Cgc_util.Table
module Server = Cgc_server.Server
module Latency = Cgc_server.Latency
module Balancer = Cgc_cluster.Balancer
module Cluster = Cgc_cluster.Cluster
module Report = Cgc_cluster.Report
module Shard = Cgc_cluster.Shard

let run () =
  Common.hdr
    "Cluster routing policies — one fleet arrival stream, three balancers";
  let shards = if Common.quick () then 4 else 8 in
  let rate = if Common.quick () then 12_000.0 else 24_000.0 in
  let ms = if Common.quick () then 1000.0 else 3000.0 in
  (* Policies run serially: the domain pool's parallelism goes to the
     shards inside each Cluster.run, where the work is. *)
  let results =
    List.map
      (fun policy ->
        (* 16 MB per shard so even the short window contains GC cycles
           (and their co-stopped windows and latency inflation). *)
        let cfg =
          Cluster.cfg ~shards ~policy ~rate_per_s:rate ~slo_ms:50.0
            ~heap_mb:16.0 ~ms ()
        in
        (policy, Cluster.run cfg))
      Balancer.all_policies
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "(%d shards, %.0f req/s fleet, 16 MB heap and 4 workers per \
            shard, %.0f ms; latencies in ms)"
           shards rate ms)
      ~header:
        [ "policy"; "done/s"; "p50"; "p99"; "p99.9"; "shed"; "routed cv";
          "done cv"; "co-stop"; "slo att" ]
  in
  List.iter
    (fun (policy, r) ->
      let tot = Cluster.fleet_totals r in
      let e2e = Latency.e2e tot.Server.lat in
      let p q = Histogram.percentile e2e q in
      let cv f =
        let xs = Array.map f r.Cluster.shards in
        let n = float_of_int (Array.length xs) in
        let mean = Array.fold_left ( +. ) 0.0 (Array.map float_of_int xs) /. n in
        if mean = 0.0 then 0.0
        else
          sqrt
            (Array.fold_left
               (fun acc x ->
                 let d = float_of_int x -. mean in
                 acc +. (d *. d))
               0.0 xs
            /. n)
          /. mean
      in
      let ph = Report.phenomena r in
      Table.add_row t
        [ Balancer.policy_name policy;
          Printf.sprintf "%.0f"
            (float_of_int tot.Server.completed /. (ms /. 1000.0));
          Printf.sprintf "%.2f" (p 50.0);
          Printf.sprintf "%.2f" (p 99.0);
          Printf.sprintf "%.2f" (p 99.9);
          string_of_int (tot.Server.shed_full + tot.Server.shed_throttled);
          Printf.sprintf "%.4f" (cv (fun s -> s.Shard.routed));
          Printf.sprintf "%.4f"
            (cv (fun s -> s.Shard.totals.Server.completed));
          string_of_int ph.Report.co_max_stopped;
          Printf.sprintf "%.4f" (Cluster.slo_attainment r) ])
    results;
  Table.print t;
  (match
     ( List.assoc_opt Balancer.Round_robin results,
       List.assoc_opt Balancer.Consistent_hash results )
   with
  | Some rr, Some ch ->
      let p r q =
        Histogram.percentile
          (Latency.e2e (Cluster.fleet_totals r).Server.lat)
          q
      in
      Printf.printf
        "Same %d arrivals, different placement: consistent-hash p99.9 %.1f ms \
         vs round-robin\n%.1f ms.  The hash ring trades balance for session \
         locality; the balance CV column is\nthe price tag, and the fleet \
         tail is where it gets paid.\n"
        (Cluster.fleet_totals rr).Server.arrived
        (p ch 99.9) (p rr 99.9)
  | _ -> ());
  []
