(* Tables 1, 2 and 3 of the paper share one parameter sweep: SPECjbb at 8
   warehouses under the STW baseline and under CGC at tracing rates 1, 4,
   8 and 10.

   Table 1: throughput, floating garbage, final (stop-the-world) card
   cleaning, average and maximum pause time per tracing rate.
   Table 2: effectiveness of metering — the percentage of collections
   failing the CC-Rate (< 20%), premature-GC Free Space (< 5%) and
   Cards-Left (= 0) criteria.
   Table 3: mutator utilization — pre-concurrent and concurrent allocation
   rates (KB/ms) and their ratio. *)

module Table = Cgc_util.Table
module Config = Cgc_core.Config

type tr_run = {
  k0 : float;
  m : Common.metrics;
  mmu : Cgc_prof.Analysis.mmu_point list;
      (* derived offline from the run's event trace *)
}

type sweep = { stw : Common.metrics; trs : tr_run list }

let tracing_rates () = if Common.quick () then [ 1.0; 8.0 ] else [ 1.0; 4.0; 8.0; 10.0 ]

let run_sweep () =
  let ms = if Common.quick () then 2000.0 else 5000.0 in
  (* The STW baseline runs first, then the tracing-rate runs fan out
     across host domains — each is an independent simulation. *)
  let stw, _ = Common.specjbb ~label:"STW" ~gc:Config.stw ~ms () in
  let trs =
    Common.par_map (tracing_rates ()) (fun k0 ->
        let gc = { Config.default with Config.k0 } in
        let m, vm =
          Common.specjbb ~label:(Printf.sprintf "TR %.0f" k0) ~gc ~ms
            ~trace:true ~trace_ring:(1 lsl 18) ()
        in
        let a = Common.analyse_trace vm in
        { k0; m; mmu = a.Cgc_prof.Analysis.mmu })
  in
  { stw; trs }

let table1 s =
  Common.hdr "Table 1 — The effects of different tracing rates (SPECjbb, 8 warehouses)";
  let cols = "measurement" :: "STW" :: List.map (fun r -> Printf.sprintf "TR %.0f" r.k0) s.trs in
  let t =
    Table.create ~title:"(floating garbage = occupancy above the STW baseline)"
      ~header:cols
  in
  let row name f_stw f_tr =
    Table.add_row t (name :: f_stw s.stw :: List.map (fun r -> f_tr r.m) s.trs)
  in
  row "Throughput (tx/s)"
    (fun m -> Printf.sprintf "%.0f" m.Common.throughput)
    (fun m -> Printf.sprintf "%.0f" m.Common.throughput);
  let base_occ = s.stw.Common.occupancy in
  row "Floating Garbage"
    (fun _ -> "0.0%")
    (fun m -> Table.fpct (Float.max 0.0 (m.Common.occupancy -. base_occ)));
  row "Avg Final Card Cleaning"
    (fun _ -> "--")
    (fun m -> Printf.sprintf "%.0f" m.Common.stw_cards);
  row "Average Pause Time (ms)"
    (fun m -> Table.fms m.Common.avg_pause)
    (fun m -> Table.fms m.Common.avg_pause);
  row "Max Pause Time (ms)"
    (fun m -> Table.fms m.Common.max_pause)
    (fun m -> Table.fms m.Common.max_pause);
  Table.print t

let table2 s =
  Common.hdr "Table 2 — Effectiveness of metering (percentage of collections failing)";
  let cols = "criterion" :: List.map (fun r -> Printf.sprintf "TR %.0f" r.k0) s.trs in
  let t = Table.create ~title:"" ~header:cols in
  let row name f =
    Table.add_row t (name :: List.map (fun r -> f r.m) s.trs)
  in
  row "CC Rate fails (stw/conc > 20%)" (fun m ->
      Printf.sprintf "%.0f%%" m.Common.cc_fail_pct);
  row "Free Space fails (> 5% on completion)" (fun m ->
      Printf.sprintf "%.1f%%" m.Common.free_fail_pct);
  row "Cards Left (halted with cards pending)" (fun m ->
      Printf.sprintf "%.0f%%" m.Common.cards_left_pct);
  Table.print t

let table3 s =
  Common.hdr "Table 3 — Mutator utilization during the concurrent phase";
  let cols = "measurement" :: List.map (fun r -> Printf.sprintf "TR %.0f" r.k0) s.trs in
  let t = Table.create ~title:"(allocation rates in KB per simulated ms)" ~header:cols in
  (* At tracing rate 1 there is no pre-concurrent phase; like the paper
     (footnote 6) we substitute the pre-concurrent rate measured at the
     next higher tracing rate. *)
  let fallback_pre =
    List.fold_left
      (fun acc r -> if r.m.Common.utilization > 0.0 then r.m.Common.pre_rate else acc)
      0.0 s.trs
  in
  let row name f =
    Table.add_row t (name :: List.map (fun r -> f r.m) s.trs)
  in
  row "pre-concurrent" (fun m ->
      if m.Common.utilization = 0.0 then "--" else Table.f1 m.Common.pre_rate);
  row "concurrent" (fun m -> Table.f1 m.Common.conc_rate);
  row "utilization" (fun m ->
      if m.Common.utilization > 0.0 then Table.fpct m.Common.utilization
      else if fallback_pre > 0.0 then
        Table.fpct (m.Common.conc_rate /. fallback_pre)
      else "--");
  (* Windowed utilization from the event trace: the paper-style MMU view
     of the same runs — the worst and average mutator share of each
     window, all pauses and tracing increments deducted. *)
  List.iter
    (fun (w : float) ->
      let point r =
        List.find_opt
          (fun (p : Cgc_prof.Analysis.mmu_point) -> p.window_ms = w)
          r.mmu
      in
      Table.add_row t
        (Printf.sprintf "MMU %.0f ms (min)" w
        :: List.map
             (fun r ->
               match point r with
               | Some p -> Table.fpct p.Cgc_prof.Analysis.mmu
               | None -> "--")
             s.trs);
      Table.add_row t
        (Printf.sprintf "MMU %.0f ms (avg)" w
        :: List.map
             (fun r ->
               match point r with
               | Some p -> Table.fpct p.Cgc_prof.Analysis.avg_util
               | None -> "--")
             s.trs))
    [ 5.0; 20.0 ];
  Table.print t

let run () =
  let s = run_sweep () in
  table1 s;
  table2 s;
  table3 s;
  s.stw :: List.map (fun r -> r.m) s.trs
