(* Figure 1 of the paper: SPECjbb from 1 to 8 warehouses, comparing the
   stop-the-world baseline with the mostly-concurrent collector — average
   and maximum pause times plus the mark component of each.

   The paper's headline at 8 warehouses: STW 266 ms avg / 284 ms max pause
   (mark avg 235 ms) versus CGC 66 ms avg / 101 ms max (mark avg 34 ms),
   at a 10% throughput cost.  We reproduce the shape at 1/4 scale (64 MB
   simulated heap vs 256 MB). *)

module Table = Cgc_util.Table
module Config = Cgc_core.Config

let warehouse_counts () =
  if Common.quick () then [ 2; 8 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let run () =
  Common.hdr
    "Figure 1 — SPECjbb 1..8 warehouses: pause times, STW vs CGC (tracing rate 8.0)";
  let t =
    Table.create ~title:"(all times in simulated ms; 64 MB heap, 4 CPUs)"
      ~header:
        [ "wh"; "STW avg"; "STW max"; "STW mark"; "CGC avg"; "CGC max";
          "CGC mark"; "STW tx/s"; "CGC tx/s"; "thrpt" ]
  in
  (* Each warehouse count is one independent pair of simulations, so the
     sweep parallelises across host domains; rows are rendered serially
     afterwards from the order-preserving result list. *)
  let results =
    Common.par_map (warehouse_counts ()) (fun wh ->
        let ms = if Common.quick () then 2000.0 else 4000.0 in
        let run gc =
          fst
            (Common.specjbb ~label:(Config.mode_name gc.Config.mode) ~gc
               ~warehouses:wh ~ms ())
        in
        let stw = run Config.stw in
        let cgc = run Config.default in
        (wh, stw, cgc))
  in
  List.iter
    (fun (wh, stw, cgc) ->
      let ratio =
        if stw.Common.throughput > 0.0 then
          cgc.Common.throughput /. stw.Common.throughput
        else 0.0
      in
      Table.add_row t
        [ string_of_int wh;
          Table.fms stw.Common.avg_pause;
          Table.fms stw.Common.max_pause;
          Table.fms stw.Common.avg_mark;
          Table.fms cgc.Common.avg_pause;
          Table.fms cgc.Common.max_pause;
          Table.fms cgc.Common.avg_mark;
          Printf.sprintf "%.0f" stw.Common.throughput;
          Printf.sprintf "%.0f" cgc.Common.throughput;
          Table.fpct ratio ])
    results;
  Table.print t;
  (match List.rev results with
  | (wh, stw, cgc) :: _ ->
      Printf.printf
        "At %d warehouses: avg pause %.0f -> %.0f ms (%.0f%% reduction; paper: 75%%),\n\
         mark avg %.0f -> %.0f ms (%.0f%% reduction; paper: 86%%), throughput ratio %.0f%% (paper: 90%%).\n"
        wh stw.Common.avg_pause cgc.Common.avg_pause
        (100.0 *. (1.0 -. (cgc.Common.avg_pause /. stw.Common.avg_pause)))
        stw.Common.avg_mark cgc.Common.avg_mark
        (100.0 *. (1.0 -. (cgc.Common.avg_mark /. stw.Common.avg_mark)))
        (100.0 *. cgc.Common.throughput /. stw.Common.throughput)
  | [] -> ());
  List.concat_map (fun (_, stw, cgc) -> [ stw; cgc ]) results
