(* The paper's headline claim restated in client-visible terms: at the
   same offered load, the mostly-concurrent collector's end-to-end
   request tail (p99.9) is far below the stop-the-world baseline's,
   because an open-loop client keeps sending while the world is stopped
   and every queued request eats the whole pause.

   Expected shape: the p99.9 gap grows with offered load — more
   requests arrive per pause, and queues drain more slowly — until the
   server saturates and overload control (shedding) takes over for both
   collectors. *)

module Config = Cgc_core.Config
module Vm = Cgc_runtime.Vm
module Histogram = Cgc_util.Histogram
module Table = Cgc_util.Table
module Server = Cgc_server.Server
module Report = Cgc_server.Report

let rates () =
  if Common.quick () then [ 6000.0; 20000.0 ]
  else [ 2000.0; 6000.0; 12000.0; 20000.0 ]

type outcome = {
  rate : float;
  label : string;
  totals : Server.totals;
  ran_ms : float;
}

let serve_one ~label ~gc ~rate ~seed ~heap_mb ~warmup_ms ~ms () =
  let vm = Vm.create (Vm.config ~heap_mb ~ncpus:4 ~seed ~gc ()) in
  let scfg =
    Server.cfg ~rate_per_s:rate ~queue_cap:256 ~workers:4 ~slo_ms:50.0 ()
  in
  let srv = Server.create scfg vm in
  Vm.run_measured vm ~warmup_ms ~ms;
  ignore (Common.collect ~label vm);
  { rate; label; totals = Server.totals srv; ran_ms = ms }

let run () =
  Common.hdr
    "Server tail latency — open-loop request stream, STW vs CGC at equal offered load";
  let warmup_ms = if Common.quick () then 500.0 else 1000.0 in
  let ms = if Common.quick () then 1500.0 else 4000.0 in
  let heap_mb = 24.0 in
  let results =
    Common.par_map (rates ()) (fun rate ->
        let stw =
          serve_one
            ~label:(Printf.sprintf "server-stw-%.0f" rate)
            ~gc:Config.stw ~rate ~seed:1 ~heap_mb ~warmup_ms ~ms ()
        in
        let cgc =
          serve_one
            ~label:(Printf.sprintf "server-cgc-%.0f" rate)
            ~gc:Config.default ~rate ~seed:1 ~heap_mb ~warmup_ms ~ms ()
        in
        (rate, stw, cgc))
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "(%.0f MB heap, 4 CPUs, 4 workers, Poisson arrivals, %.0f ms \
            measured; latencies in ms)"
           heap_mb ms)
      ~header:
        [ "req/s"; "gc"; "done/s"; "p50"; "p99"; "p99.9"; "max"; "shed";
          "t/o"; "p99.9 gap" ]
  in
  let p o q = Histogram.percentile (Cgc_server.Latency.e2e o.totals.Server.lat) q in
  List.iter
    (fun (rate, stw, cgc) ->
      let gap =
        let c = p cgc 99.9 in
        if c > 0.0 then p stw 99.9 /. c else 0.0
      in
      List.iter
        (fun (o, gap_cell) ->
          let tot = o.totals in
          Table.add_row t
            [ Printf.sprintf "%.0f" rate;
              Config.mode_name (if o == stw then Config.Stw else Config.Cgc);
              Printf.sprintf "%.0f"
                (float_of_int tot.Server.completed /. (o.ran_ms /. 1000.0));
              Printf.sprintf "%.2f" (p o 50.0);
              Printf.sprintf "%.2f" (p o 99.0);
              Printf.sprintf "%.2f" (p o 99.9);
              Printf.sprintf "%.2f"
                (Histogram.max (Cgc_server.Latency.e2e tot.Server.lat));
              string_of_int
                (tot.Server.shed_full + tot.Server.shed_throttled);
              string_of_int tot.Server.timed_out;
              gap_cell ])
        [ (stw, ""); (cgc, Printf.sprintf "%.1fx" gap) ])
    results;
  Table.print t;
  (match List.rev results with
  | (rate_hi, stw_hi, cgc_hi) :: _ ->
      Printf.printf
        "At %.0f req/s the STW p99.9 is %.1f ms vs CGC %.1f ms: every request \
         that lands\nduring a stop-the-world pause queues for the whole pause, \
         so the client-visible\ntail tracks max-pause, not avg-pause.  Shed \
         counts (%d stw / %d cgc) show the\noverload-control rungs engaging \
         as the offered load approaches saturation.\n"
        rate_hi (p stw_hi 99.9) (p cgc_hi 99.9)
        (stw_hi.totals.Server.shed_full + stw_hi.totals.Server.shed_throttled)
        (cgc_hi.totals.Server.shed_full + cgc_hi.totals.Server.shed_throttled)
  | [] -> ());
  results
