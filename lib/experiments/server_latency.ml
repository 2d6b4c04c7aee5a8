(* Two client-visible tables from one sweep: a server VM under an
   open-loop Poisson request stream, at each offered load, under each of
   stw, cgc and gen, all with the same 24 MB total heap budget.

   serverlat — the paper's headline claim restated in client-visible
   terms: at the same offered load, the mostly-concurrent collector's
   end-to-end request tail (p99.9) is far below the stop-the-world
   baseline's, because an open-loop client keeps sending while the world
   is stopped and every queued request eats the whole pause.  Expected
   shape: the p99.9 gap grows with offered load — more requests arrive
   per pause, and queues drain more slowly — until the server saturates
   and overload control (shedding) takes over for both collectors.

   genlat — the generational question: what does a nursery buy over the
   concurrent collector alone, and what does either buy over the
   stop-the-world baseline?  Expected shape: stw's tail tracks its max
   pause (every queued request eats the whole collection); cgc moves
   most of the work off the pause and the tail collapses; gen keeps the
   cgc tail while retiring the short-lived request garbage in minor
   collections that stop only the allocating worker — fewer major
   cycles, and the pause columns split cleanly into a per-generation
   decomposition. *)

module Config = Cgc_core.Config
module Gstats = Cgc_core.Gstats
module Vm = Cgc_runtime.Vm
module Histogram = Cgc_util.Histogram
module Table = Cgc_util.Table
module Server = Cgc_server.Server

let rates () =
  if Common.quick () then [ 6000.0; 20000.0 ]
  else [ 2000.0; 6000.0; 12000.0; 20000.0 ]

let modes = [ Config.stw; Config.default; Config.gen ]
let heap_mb = 24.0

type outcome = {
  rate : float;
  mode : Config.mode;
  totals : Server.totals;
  minors : int;
  majors : int;
  minor_p99_ms : float;
  promoted_kb : float;
  metrics : Common.metrics;
}

let serve_one ~gc ~rate ~warmup_ms ~ms =
  let label =
    Printf.sprintf "genlat-%s-%.0f" (Config.mode_name gc.Config.mode) rate
  in
  let vm = Vm.create (Vm.config ~heap_mb ~ncpus:4 ~seed:1 ~gc ()) in
  let scfg =
    Server.cfg ~rate_per_s:rate ~queue_cap:256 ~workers:4 ~slo_ms:50.0 ()
  in
  let srv = Server.create scfg vm in
  Vm.run_measured vm ~warmup_ms ~ms;
  let st = Vm.gc_stats vm in
  {
    rate;
    mode = gc.Config.mode;
    totals = Server.totals srv;
    minors = st.Gstats.minors;
    majors = Histogram.count st.Gstats.pause_ms;
    minor_p99_ms = Histogram.percentile st.Gstats.minor_pause_ms 99.0;
    promoted_kb = float_of_int st.Gstats.promoted_slots *. 8.0 /. 1024.0;
    metrics = Common.collect ~label vm;
  }

let e2e o = Cgc_server.Latency.e2e o.totals.Server.lat
let p o q = Histogram.percentile (e2e o) q
let shed o = o.totals.Server.shed_full + o.totals.Server.shed_throttled

(* The leading columns both tables share. *)
let latency_cells ~ms o =
  [ Printf.sprintf "%.0f" o.rate;
    Config.mode_name o.mode;
    Printf.sprintf "%.0f"
      (float_of_int o.totals.Server.completed /. (ms /. 1000.0));
    Printf.sprintf "%.2f" (p o 50.0);
    Printf.sprintf "%.2f" (p o 99.0);
    Printf.sprintf "%.2f" (p o 99.9);
    Printf.sprintf "%.2f" (Histogram.max (e2e o)) ]

let serverlat ~ms results =
  Common.hdr
    "Server tail latency — open-loop request stream, STW vs CGC at equal offered load";
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
  List.iter
    (function
      | stw :: cgc :: _ ->
          let gap =
            let c = p cgc 99.9 in
            if c > 0.0 then p stw 99.9 /. c else 0.0
          in
          List.iter
            (fun (o, gap_cell) ->
              Table.add_row t
                (latency_cells ~ms o
                @ [ string_of_int (shed o);
                    string_of_int o.totals.Server.timed_out;
                    gap_cell ]))
            [ (stw, ""); (cgc, Printf.sprintf "%.1fx" gap) ]
      | _ -> ())
    results;
  Table.print t;
  match List.rev results with
  | (stw_hi :: cgc_hi :: _) :: _ ->
      Printf.printf
        "At %.0f req/s the STW p99.9 is %.1f ms vs CGC %.1f ms: every request \
         that lands\nduring a stop-the-world pause queues for the whole pause, \
         so the client-visible\ntail tracks max-pause, not avg-pause.  Shed \
         counts (%d stw / %d cgc) show the\noverload-control rungs engaging \
         as the offered load approaches saturation.\n"
        stw_hi.rate (p stw_hi 99.9) (p cgc_hi 99.9) (shed stw_hi) (shed cgc_hi)
  | _ -> ()

let genlat ~ms results =
  Common.hdr
    "Generational tail latency — stw vs cgc vs gen at equal offered load \
     and equal total heap budget";
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "(%.0f MB total heap each — gen carves its nursery from the same \
            budget; 4 CPUs, 4 workers,\n Poisson arrivals, %.0f ms measured; \
            latencies in ms)"
           heap_mb ms)
      ~header:
        [ "req/s"; "gc"; "done/s"; "p50"; "p99"; "p99.9"; "max"; "majors";
          "minors"; "minor p99"; "promoted KB" ]
  in
  List.iter
    (List.iter (fun o ->
         let gen_only cell = if o.mode = Config.Gen then cell else "-" in
         Table.add_row t
           (latency_cells ~ms o
           @ [ string_of_int o.majors;
               gen_only (string_of_int o.minors);
               gen_only (Printf.sprintf "%.3f" o.minor_p99_ms);
               gen_only (Printf.sprintf "%.0f" o.promoted_kb) ])))
    results;
  Table.print t;
  match List.rev results with
  | [ stw_hi; cgc_hi; gen_hi ] :: _ ->
      Printf.printf
        "At %.0f req/s: p99.9 %.1f ms stw / %.1f ms cgc / %.1f ms gen.  The \
         nursery retires\nrequest garbage in %d minor collections (p99 %.3f \
         ms, one mutator each) and ran\n%d major cycles vs cgc's %d — \
         survivors promoted into the concurrently-collected\nold space \
         instead of being traced every cycle.\n"
        gen_hi.rate (p stw_hi 99.9) (p cgc_hi 99.9) (p gen_hi 99.9)
        gen_hi.minors gen_hi.minor_p99_ms gen_hi.majors cgc_hi.majors
  | _ -> ()

let run () =
  let warmup_ms = if Common.quick () then 500.0 else 1000.0 in
  let ms = if Common.quick () then 1500.0 else 4000.0 in
  let results =
    Common.par_map (rates ()) (fun rate ->
        List.map (fun gc -> serve_one ~gc ~rate ~warmup_ms ~ms) modes)
  in
  serverlat ~ms results;
  genlat ~ms results;
  List.concat_map (List.map (fun o -> o.metrics)) results
