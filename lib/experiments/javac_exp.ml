(* The javac experiment from section 6.1: a single-threaded compiler on a
   uniprocessor with one background collector thread, 25 MB heap at 70%
   occupancy.  Paper: CGC 41 ms max / 34 ms avg pause vs STW 167/138 ms;
   CGC loses 12% throughput. *)

module Table = Cgc_util.Table
module Vm = Cgc_runtime.Vm
module Config = Cgc_core.Config

let run () =
  Common.hdr "javac (section 6.1) — uniprocessor, 1 background thread, 25 MB heap";
  let measure label gc =
    let gc = { gc with Config.n_background = 1 } in
    let vm = Cgc_workloads.Javac.setup ~gc () in
    let ms = if Common.quick () then 2500.0 else 6000.0 in
    Vm.run_measured vm ~warmup_ms:1000.0 ~ms;
    Common.collect ~label vm
  in
  let stw = measure "STW" Config.stw in
  let cgc = measure "CGC" Config.default in
  let t =
    Table.create ~title:""
      ~header:[ "collector"; "avg pause"; "max pause"; "occupancy"; "tx/s" ]
  in
  List.iter
    (fun (m : Common.metrics) ->
      Table.add_row t
        [ m.Common.label;
          Table.fms m.Common.avg_pause;
          Table.fms m.Common.max_pause;
          Table.fpct m.Common.occupancy;
          Printf.sprintf "%.0f" m.Common.throughput ])
    [ stw; cgc ];
  Table.print t;
  Printf.printf
    "Pause reduction: avg %.0f%%, max %.0f%% (paper: 75%% / 75%%); throughput ratio %.0f%% (paper: 88%%).\n"
    (100.0 *. (1.0 -. (cgc.Common.avg_pause /. Float.max 0.001 stw.Common.avg_pause)))
    (100.0 *. (1.0 -. (cgc.Common.max_pause /. Float.max 0.001 stw.Common.max_pause)))
    (100.0 *. cgc.Common.throughput /. Float.max 0.001 stw.Common.throughput);
  [ stw; cgc ]
