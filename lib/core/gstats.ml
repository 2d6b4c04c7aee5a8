module Stats = Cgc_util.Stats
module Histogram = Cgc_util.Histogram
module Cost = Cgc_smp.Cost

type cycle_row = {
  cycle : int;
  end_ms : float;
  pause_ms : float;
  mark_ms : float;
  sweep_ms : float;
  compact_ms : float;
  conc_cards : int;
  stw_cards : int;
  traced_conc : int;
  traced_stw : int;
  evac_slots : int;
  occupancy : float;
  degrade_force_finish : int;
  degrade_full_stw : int;
  degrade_compact : int;
}

type t = {
  pause_ms : Histogram.t;
  mark_ms : Histogram.t;
  sweep_ms : Histogram.t;
  compact_ms : Histogram.t;
  stw_cards : Stats.t;
  conc_cards : Stats.t;
  cc_ratio : Stats.t;
  occupancy_end : Stats.t;
  premature_free : Stats.t;
  cards_left : Stats.t;
  tracing_factor : Stats.t;
  fairness : Stats.t;
  cas_per_mb : Stats.t;
  traced_conc_slots : Stats.t;
  traced_stw_slots : Stats.t;
  mutable cycle_log : cycle_row list;
  mutable cycles : int;
  mutable premature_cycles : int;
  mutable halted_cycles : int;
  mutable overflow_events : int;
  mutable max_deferred_packets : int;
  mutable degrade_force_finish : int;
  mutable degrade_full_stw : int;
  mutable degrade_compact : int;
  mutable oom_raised : int;
  mutable preconc_slots : int;
  mutable preconc_time : int;
  mutable conc_slots : int;
  mutable conc_time : int;
  mutable total_alloc_slots : int;
  (* Generational front end (Gen mode): minor-collection aggregates,
     kept out of the per-cycle CSV so the cgcsim-cycles-v1 schema is
     untouched. *)
  minor_pause_ms : Histogram.t;
  mutable minors : int;
  mutable promoted_slots : int;
  mutable minor_deferred : int;
}

let create () =
  {
    pause_ms = Histogram.create ();
    mark_ms = Histogram.create ();
    sweep_ms = Histogram.create ();
    compact_ms = Histogram.create ();
    stw_cards = Stats.create ();
    conc_cards = Stats.create ();
    cc_ratio = Stats.create ();
    occupancy_end = Stats.create ();
    premature_free = Stats.create ();
    cards_left = Stats.create ();
    tracing_factor = Stats.create ();
    fairness = Stats.create ();
    cas_per_mb = Stats.create ();
    traced_conc_slots = Stats.create ();
    traced_stw_slots = Stats.create ();
    cycle_log = [];
    cycles = 0;
    premature_cycles = 0;
    halted_cycles = 0;
    overflow_events = 0;
    max_deferred_packets = 0;
    degrade_force_finish = 0;
    degrade_full_stw = 0;
    degrade_compact = 0;
    oom_raised = 0;
    preconc_slots = 0;
    preconc_time = 0;
    conc_slots = 0;
    conc_time = 0;
    total_alloc_slots = 0;
    minor_pause_ms = Histogram.create ();
    minors = 0;
    promoted_slots = 0;
    minor_deferred = 0;
  }

let reset t =
  Histogram.clear t.pause_ms;
  Histogram.clear t.mark_ms;
  Histogram.clear t.sweep_ms;
  Histogram.clear t.compact_ms;
  Stats.clear t.stw_cards;
  Stats.clear t.conc_cards;
  Stats.clear t.cc_ratio;
  Stats.clear t.occupancy_end;
  Stats.clear t.premature_free;
  Stats.clear t.cards_left;
  Stats.clear t.tracing_factor;
  Stats.clear t.fairness;
  Stats.clear t.cas_per_mb;
  Stats.clear t.traced_conc_slots;
  Stats.clear t.traced_stw_slots;
  t.cycle_log <- [];
  t.cycles <- 0;
  t.premature_cycles <- 0;
  t.halted_cycles <- 0;
  t.overflow_events <- 0;
  t.max_deferred_packets <- 0;
  t.degrade_force_finish <- 0;
  t.degrade_full_stw <- 0;
  t.degrade_compact <- 0;
  t.oom_raised <- 0;
  t.preconc_slots <- 0;
  t.preconc_time <- 0;
  t.conc_slots <- 0;
  t.conc_time <- 0;
  t.total_alloc_slots <- 0;
  Histogram.clear t.minor_pause_ms;
  t.minors <- 0;
  t.promoted_slots <- 0;
  t.minor_deferred <- 0

let note_cycle t row =
  t.cycle_log <- row :: t.cycle_log;
  Histogram.add t.pause_ms row.pause_ms;
  Histogram.add t.mark_ms row.mark_ms;
  Histogram.add t.sweep_ms row.sweep_ms;
  Histogram.add t.compact_ms row.compact_ms

let cycle_rows t = List.rev t.cycle_log

let csv_header =
  [
    "cycle"; "end_ms"; "pause_ms"; "mark_ms"; "sweep_ms"; "compact_ms";
    "conc_cards"; "stw_cards"; "traced_conc_slots"; "traced_stw_slots";
    "evac_slots"; "occupancy"; "degrade_force_finish"; "degrade_full_stw";
    "degrade_compact";
  ]

let csv_rows t =
  List.map
    (fun r ->
      [
        string_of_int r.cycle;
        Printf.sprintf "%.3f" r.end_ms;
        Printf.sprintf "%.4f" r.pause_ms;
        Printf.sprintf "%.4f" r.mark_ms;
        Printf.sprintf "%.4f" r.sweep_ms;
        Printf.sprintf "%.4f" r.compact_ms;
        string_of_int r.conc_cards;
        string_of_int r.stw_cards;
        string_of_int r.traced_conc;
        string_of_int r.traced_stw;
        string_of_int r.evac_slots;
        Printf.sprintf "%.4f" r.occupancy;
        string_of_int r.degrade_force_finish;
        string_of_int r.degrade_full_stw;
        string_of_int r.degrade_compact;
      ])
    (cycle_rows t)

let rate slots time cost =
  if time <= 0 then 0.0
  else
    let kb = float_of_int (slots * 8) /. 1024.0 in
    kb /. Cost.ms_of_cycles cost time

let alloc_rate_preconc t ~cost = rate t.preconc_slots t.preconc_time cost
let alloc_rate_conc t ~cost = rate t.conc_slots t.conc_time cost

let utilization t =
  let pre = t.preconc_slots and pt = t.preconc_time in
  let con = t.conc_slots and ct = t.conc_time in
  (* At tracing rate 1 there is (almost) no pre-concurrent phase, so the
     baseline rate cannot be measured from this run (the paper hits the
     same problem, footnote 6); report 0 and let callers substitute a
     baseline from another run. *)
  if pt <= 0 || ct <= 0 || pre <= 0 || pt * 10 < ct then 0.0
  else
    let pre_rate = float_of_int pre /. float_of_int pt in
    let conc_rate = float_of_int con /. float_of_int ct in
    conc_rate /. pre_rate
