module Heap = Cgc_heap.Heap
module Arena = Cgc_heap.Arena
module Card_table = Cgc_heap.Card_table
module Pool = Cgc_packets.Pool
module Machine = Cgc_smp.Machine
module Weakmem = Cgc_smp.Weakmem
module Fence = Cgc_smp.Fence
module Cost = Cgc_smp.Cost
module Sched = Cgc_sim.Sched
module Parallel = Cgc_sim.Parallel
module Stats = Cgc_util.Stats
module Obs = Cgc_obs.Obs
module Obs_event = Cgc_obs.Event
module Fault = Cgc_fault.Fault

type phase = Idle | Marking | Finalizing

let phase_name = function
  | Idle -> "idle"
  | Marking -> "marking"
  | Finalizing -> "finalizing"

(* The collector's one state.  [Idle], [Marking] and [Finalizing] shadow
   the [phase] constructors above, which {!phase} projects onto.
   [Starting] and [Finalizing] belong to the thread that entered them;
   every other thread waits for that thread to leave them. *)
type state =
  | Idle  (* no cycle; the free list is complete *)
  | Sweeping of Sweep.lazy_t
      (* no cycle; an unfinished lazy sweep (section 7) feeds the free
         list *)
  | Starting  (* a cycle start is claimed: finishing the lazy sweep *)
  | Marking  (* the concurrent phase *)
  | Finalizing  (* the stop-the-world phase *)

let state_name = function
  | Idle -> "idle"
  | Sweeping _ -> "sweeping"
  | Starting -> "starting"
  | Marking -> "marking"
  | Finalizing -> "finalizing"

type oom_diag = {
  oom_phase : phase;  (* phase when the failing request was made *)
  oom_request : int;
  oom_cycle : int;
  oom_free : int;
  oom_live : int;
  oom_nslots : int;
  oom_pool : int * int * int * int;
  oom_rungs : int;
}

exception Out_of_memory of oom_diag

let oom_to_string d =
  let e, ne, af, df = d.oom_pool in
  Printf.sprintf
    "out of memory: request=%d slots in %s phase (cycle %d); after %d \
     degradation rungs free=%d of %d slots, live~=%d; packet pool \
     (empty=%d, nonempty=%d, almost-full=%d, deferred=%d)"
    d.oom_request (phase_name d.oom_phase) d.oom_cycle d.oom_rungs d.oom_free
    d.oom_nslots d.oom_live e ne af df

let () =
  Printexc.register_printer (function
    | Out_of_memory d -> Some (oom_to_string d)
    | _ -> None)

let n_globals = 256
let cache_slots = 256 (* preferred allocation-cache size: 2 KB *)
let large_object_slots = 128 (* 1 KB: objects this big bypass the cache *)
let gc_workers = 4 (* parallel workers for the stop-the-world phases *)
let bg_chunk = 512 (* slots traced per background-thread scheduling chunk *)
let evac_fraction = 1.0 /. 16.0 (* heap share evacuated per compacting cycle *)

type t = {
  cfg : Config.t;
  sched : Sched.t;
  hp : Heap.t;
  mach : Machine.t;
  pl : Pool.t;
  tr : Tracer.t;
  cl : Card_clean.t;
  meter : Metering.t;
  st : Gstats.t;
  globals : int array;
  mutable state : state; (* written by [set_state] alone *)
  mutable muts : Mctx.t list;
  mutable globals_scanned : bool;
  mutable cycle_no : int;
  (* per-cycle scratch *)
  mutable conc_start : int;
  mutable preconc_start : int;
  mutable cycle_factors : Stats.t;
  mutable cas_at_start : int;
  mutable black_slots : int; (* allocate-black volume this cycle *)
  mutable bg_window_traced : int;
  mutable alloc_window : int;
  mutable last_recycle : int;
  mutable starve_streak : int;
      (* consecutive work-seeking attempts that found no packet work *)
  mutable bg_started : bool;
  cp : Compact.t;
  (* Generational front end (Gen mode), injected by [install_gen] after
     construction — the nursery lives in cgc_gen, above this library, so
     the collector only sees the old-space boundary and two closures. *)
  mutable old_limit : int;
      (* first slot past the old space; Heap.nslots except in Gen mode.
         The sweep (and the emergency compactor) must never touch
         [old_limit, nslots). *)
  mutable gen_barrier : (parent:int -> value:int -> unit) option;
      (* extra Gen write-barrier work: dirty the young remembered set on
         an old->young store *)
  mutable gen_refill : (Mctx.t -> min:int -> bool) option;
      (* refill a mutator cache from the nursery, running a minor
         collection if the nursery is exhausted; false when the caller
         must fall back to the old-space free list *)
}

let create cfg ~sched ~heap =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Collector.create: " ^ msg));
  let mach = Heap.machine heap in
  let pl =
    (* Under the naive fence policy the ablation also pays one fence per
       object marked, instead of one per packet returned (section 5.1). *)
    Pool.create mach
      ~naive_mark_fence:(Heap.fence_policy_of heap = Cgc_heap.Heap.Naive)
      ~faults:cfg.Config.faults
      ~n_packets:cfg.Config.n_packets
      ~capacity:cfg.Config.packet_capacity
  in
  {
    cfg;
    sched;
    hp = heap;
    mach;
    pl;
    tr = Tracer.create cfg heap pl;
    cl = Card_clean.create heap;
    meter = Metering.create cfg ~heap_slots:(Heap.nslots heap);
    st = Gstats.create ();
    globals = Array.make n_globals 0;
    state = Idle;
    muts = [];
    globals_scanned = false;
    cycle_no = 0;
    conc_start = 0;
    preconc_start = 0;
    cycle_factors = Stats.create ();
    cas_at_start = 0;
    black_slots = 0;
    bg_window_traced = 0;
    alloc_window = 0;
    last_recycle = 0;
    starve_streak = 0;
    bg_started = false;
    cp = Compact.create heap;
    old_limit = Heap.nslots heap;
    gen_barrier = None;
    gen_refill = None;
  }

let compactor t = t.cp

let install_gen t ~old_limit ~barrier ~refill =
  if t.cfg.Config.mode <> Config.Gen then
    invalid_arg "Collector.install_gen: collector is not in Gen mode";
  t.old_limit <- old_limit;
  t.gen_barrier <- Some barrier;
  t.gen_refill <- Some refill

let old_limit t = t.old_limit
let mutators t = t.muts
let globals_array t = t.globals

let config t = t.cfg
let heap t = t.hp
let stats t = t.st
let tracer t = t.tr
let pool t = t.pl
let cleaner t = t.cl

let phase t : phase =
  match t.state with
  | Idle | Sweeping _ | Starting -> Idle
  | Marking -> Marking
  | Finalizing -> Finalizing

(* The one writer of [t.state].  Every legal edge is listed here; any
   other raises.  The cycle number rises on entry to [Marking] alone. *)
let set_state t next =
  (match (t.state, next) with
  | (Idle | Sweeping _), Starting
  | Sweeping _, Idle
  | Starting, Marking
  | Marking, Finalizing
  | Finalizing, (Idle | Sweeping _) -> ()
  | prev, _ ->
      invalid_arg
        (Printf.sprintf "Collector: no state edge %s -> %s" (state_name prev)
           (state_name next)));
  (match next with Marking -> t.cycle_no <- t.cycle_no + 1 | _ -> ());
  t.state <- next

let marking t = match t.state with Marking -> true | _ -> false

(* Wait, from inside a simulated thread, until no thread holds [Starting]
   or [Finalizing].  The poll interval, 1/16 ms, is about one window of
   the lazy finish that a start runs. *)
let await_release t =
  Sched.poll (t.mach.Machine.cost.Cost.cycles_per_ms / 16) ~ready:(fun () ->
      match t.state with Starting | Finalizing -> false | _ -> true)

(* One window of the lazy sweep.  The sweep leaves [Sweeping] in the step
   that finishes it, before that step's closing preemption point. *)
let sweep_step t lz ~max_slots =
  ignore
    (Sweep.lazy_step t.hp lz ~max_slots ~on_finish:(fun () ->
         set_state t Idle))

let register_mutator t thread ~stack_slots =
  let m = Mctx.create ~tid:(Sched.thread_id thread) ~thread ~stack_slots in
  t.muts <- m :: t.muts;
  m

(* ------------------------------------------------------------------ *)
(* Write barrier                                                       *)

let set_ref t ~parent ~idx ~value =
  let c = t.mach.Machine.cost in
  (* The new reference is made accessible as a root first (it is the
     [value] argument, live in the caller), then the cell is modified,
     and finally the card is dirtied — no fence (footnote 3, section 5.3). *)
  Arena.ref_set_raw (Heap.arena t.hp) parent idx value;
  match t.cfg.Config.mode with
  | Config.Stw -> ()
  | Config.Cgc ->
      Machine.charge t.mach c.Cost.write_barrier;
      Card_table.dirty (Heap.cards t.hp) (Arena.card_of_addr parent)
  | Config.Gen -> (
      (* The major's barrier unchanged, plus the generational half: an
         old->young store must also reach the young remembered set or
         the next minor would miss the edge. *)
      Machine.charge t.mach c.Cost.write_barrier;
      Card_table.dirty (Heap.cards t.hp) (Arena.card_of_addr parent);
      match t.gen_barrier with
      | Some f -> f ~parent ~value
      | None -> ())

let get_ref t ~parent ~idx = Arena.ref_get (Heap.arena t.hp) parent idx

let global_set t i v = t.globals.(i) <- v
let global_get t i = t.globals.(i)

let checkpoint t = Machine.flush t.mach

(* Free space for the metering formulas.  Under lazy sweep the free list
   only holds what the sweep cursor has uncovered so far; the unswept
   remainder of the heap still contains (1 - occupancy) of reclaimable
   space, and the kickoff formula must see it or it would start (and
   force-finish) a new cycle immediately after every mark. *)
let free_estimate t =
  let actual = Heap.free_slots t.hp in
  match t.state with
  | Sweeping lz ->
      let n = float_of_int (Heap.nslots t.hp) in
      let free_frac =
        Float.max 0.0 (1.0 -. (Metering.l_estimate t.meter /. n))
      in
      let unswept = float_of_int (Heap.nslots t.hp - Sweep.lazy_pos lz) in
      actual + int_of_float (unswept *. free_frac)
  | _ -> actual

(* ------------------------------------------------------------------ *)
(* Concurrent-phase helpers                                            *)

let live_estimate t =
  Tracer.marked_slots t.tr + t.black_slots

let all_stacks_scanned t =
  List.for_all (fun (m : Mctx.t) -> m.Mctx.stack_scanned) t.muts

let trace_complete t =
  marking t
  && Pool.terminated t.pl
  && Card_clean.queue_len t.cl = 0
  && Card_clean.passes_started t.cl >= t.cfg.Config.card_passes
  && all_stacks_scanned t && t.globals_scanned

let force_mutator_fences t =
  (* "Force all mutators to execute a fence, e.g., stop each one
     individually" (section 5.3 step 2).  We drain each mutator's store
     buffer and charge one fence plus a dispatch per mutator to the
     thread doing the forcing. *)
  let c = t.mach.Machine.cost in
  List.iter
    (fun (m : Mctx.t) ->
      Fence.count t.mach.Machine.fences Fence.Card_snapshot;
      Machine.charge t.mach (c.Cost.fence + c.Cost.dispatch);
      Weakmem.fence t.mach.Machine.wm ~cpu:m.Mctx.tid ~now:(Machine.now t.mach))
    t.muts

let scan_own_stack t session (m : Mctx.t) =
  if not m.Mctx.stack_scanned then begin
    m.Mctx.stack_scanned <- true;
    ignore (Tracer.scan_roots t.tr session m.Mctx.roots)
  end

let scan_globals t session =
  if not t.globals_scanned then begin
    t.globals_scanned <- true;
    ignore (Tracer.scan_roots t.tr session t.globals)
  end

(* The concurrent-work ladder: packets first; when starved, recycle
   deferred packets; then start / continue a card-cleaning pass; then take
   the stack of a thread that never allocates.  Returns slots traced, 0
   when no work could be found anywhere. *)
let find_work t session ~budget =
  let n = Tracer.trace_until t.tr session ~budget in
  if n > 0 then begin
    t.starve_streak <- 0;
    n
  end
  else begin
    t.starve_streak <- t.starve_streak + 1;
    let recycled =
      if
        Pool.deferred_count t.pl > 0
        && Machine.now t.mach - t.last_recycle
           > t.mach.Machine.cost.Cost.cycles_per_ms
      then begin
        t.last_recycle <- Machine.now t.mach;
        Pool.recycle_deferred t.pl
      end
      else 0
    in
    if recycled > 0 then Tracer.trace_until t.tr session ~budget
    else begin
      (* Card cleaning: deferred as long as possible (section 2.1) — a
         momentary packet shortage early in the cycle must not trigger
         it, or cards cleaned now will just be dirtied again.  The pass
         starts only once the bulk of the expected tracing volume is
         done and all stacks have been scanned. *)
      if
        Card_clean.queue_len t.cl = 0
        && Card_clean.passes_started t.cl < t.cfg.Config.card_passes
        && all_stacks_scanned t && t.globals_scanned
        && (float_of_int (Tracer.marked_slots t.tr)
            >= 0.8 *. Metering.l_estimate t.meter
           || t.starve_streak >= 64)
      then Card_clean.start_pass t.cl ~force_fences:(fun () -> force_mutator_fences t);
      match Card_clean.clean_one t.cl t.tr session ~stw:false with
      | Some n -> n
      | None -> (
          (* Stacks of threads that never allocate, last. *)
          match
            List.find_opt (fun (m : Mctx.t) -> not m.Mctx.stack_scanned) t.muts
          with
          | Some m ->
              scan_own_stack t session m;
              1 (* progress was made even if no roots were pushed *)
          | None ->
              if not t.globals_scanned then begin
                scan_globals t session;
                1
              end
              else 0)
    end
  end

(* ------------------------------------------------------------------ *)
(* Cycle start                                                         *)

(* The heap share a cycle started now evacuates: none unless compaction
   is configured. *)
let steady_evac t = if t.cfg.Config.compaction then Some evac_fraction else None

(* Start a cycle that evacuates [evac] of the heap.  The caller has seen
   [Idle] or [Sweeping] with no preemption point since. *)
let start_cycle t ~evac =
  let unswept = match t.state with Sweeping lz -> Some lz | _ -> None in
  (* Claim the start before the lazy finish's first preemption point:
     until [Marking], every other thread sees [Starting] and keeps off. *)
  set_state t Starting;
  (* A still-running lazy sweep reads the mark bits we are about to
     clear: drive it to completion first. *)
  Option.iter (Sweep.lazy_finish t.hp) unswept;
  set_state t Marking;
  Obs.instant t.mach.Machine.obs ~arg:t.cycle_no Obs_event.Cycle_start;
  Option.iter
    (fun fraction ->
      Compact.choose_area t.cp ~cycle:t.cycle_no ~fraction;
      Tracer.set_compactor t.tr t.cp)
    evac;
  let now = Machine.now t.mach in
  t.st.Gstats.preconc_time <- t.st.Gstats.preconc_time + (now - t.preconc_start);
  t.conc_start <- now;
  Heap.clear_marks t.hp;
  Card_table.clear_all (Heap.cards t.hp);
  Tracer.reset_cycle t.tr;
  Card_clean.reset_cycle t.cl;
  List.iter
    (fun (m : Mctx.t) ->
      m.Mctx.stack_scanned <- false;
      m.Mctx.trace_debt <- 0)
    t.muts;
  t.globals_scanned <- false;
  t.cycle_factors <- Stats.create ();
  t.cas_at_start <- t.mach.Machine.cas_ops;
  t.starve_streak <- 0;
  t.black_slots <- 0;
  t.bg_window_traced <- 0;
  t.alloc_window <- 0

(* ------------------------------------------------------------------ *)
(* Stop-the-world phase                                                *)

let stw_mark_worker t wid nworkers =
  let rec go session =
    let _ = Tracer.trace_until t.tr session ~budget:max_int in
    match Card_clean.clean_one t.cl t.tr session ~stw:true with
    | Some _ -> go session
    | None ->
        if Pool.deferred_count t.pl > 0 && Pool.recycle_deferred t.pl > 0 then begin
          go session
        end
        else begin
          Tracer.release t.tr session;
          if not (Pool.terminated t.pl) || Card_clean.queue_len t.cl > 0 then begin
            Sched.yield ();
            go (Tracer.new_session t.tr)
          end
        end
  in
  let session = Tracer.new_session t.tr in
  (* Rescan every thread stack (they changed since the concurrent scan)
     plus the global roots, partitioned across workers. *)
  List.iteri
    (fun i (m : Mctx.t) ->
      if i mod nworkers = wid then begin
        ignore (Tracer.scan_roots t.tr session m.Mctx.roots);
        m.Mctx.stack_scanned <- true
      end)
    t.muts;
  if wid = 0 then begin
    ignore (Tracer.scan_roots t.tr session t.globals);
    t.globals_scanned <- true
  end;
  go session

type stw_reason = Completed | Halted | Degenerate | Forced

(* Host-side (uncharged) heap-integrity walk: every object reachable from
   the roots must still look like an object.  Returns the invalid
   (referrer, address) pairs. *)
let check_reachable t =
  let arena = Heap.arena t.hp in
  let abits = Heap.alloc_bits t.hp in
  let seen = Hashtbl.create 1024 in
  let bad = ref [] in
  let rec walk from addr =
    if addr <> 0 && not (Hashtbl.mem seen addr) then begin
      Hashtbl.replace seen addr ();
      (* A heap-reachable object may legitimately still be unpublished
         (its allocation bit waits for the owner's cache to retire), so
         only the header is validated here; the allocation bit is required
         only for the conservative root filtering below. *)
      if not (Arena.in_heap arena addr && Arena.header_valid_sc arena addr)
      then bad := (from, addr) :: !bad
      else
        let nrefs = Arena.nrefs_of_sc arena addr in
        for i = 0 to nrefs - 1 do
          walk addr (Arena.ref_get_sc arena addr i)
        done
    end
  in
  List.iter
    (fun (m : Mctx.t) ->
      Array.iter
        (fun v ->
          (* Roots are conservative: only follow values that the scan
             itself would have treated as references. *)
          if
            Arena.in_heap arena v
            && Cgc_heap.Alloc_bits.is_set_sc abits v
            && Arena.header_valid_sc arena v
          then walk (-m.Mctx.tid) v)
        m.Mctx.roots)
    t.muts;
  Array.iter (fun v -> if v <> 0 then walk (-999) v) t.globals;
  !bad

let finalize t reason =
  (* Enter Finalizing and stop the world before anything that can
     suspend this thread — the two must be atomic, or another mutator
     could take an allocation failure while we are in Finalizing. *)
  set_state t Finalizing;
  Sched.stop_the_world t.sched;
  Machine.flush t.mach;
  let free_frac =
    float_of_int (Heap.free_slots t.hp) /. float_of_int (Heap.nslots t.hp)
  in
  (match reason with
  | Completed ->
      t.st.Gstats.premature_cycles <- t.st.Gstats.premature_cycles + 1;
      Stats.add t.st.Gstats.premature_free free_frac
  | Halted ->
      t.st.Gstats.halted_cycles <- t.st.Gstats.halted_cycles + 1;
      Stats.add t.st.Gstats.cards_left
        (float_of_int (Card_clean.queue_len t.cl))
  | Degenerate | Forced -> ());
  let now = Machine.now t.mach in
  t.st.Gstats.conc_time <- t.st.Gstats.conc_time + (now - t.conc_start);
  let mark_t0 = now in
  let marked_before_stw = Tracer.marked_slots t.tr in
  (match t.cfg.Config.mode with
  | Config.Cgc | Config.Gen ->
      Obs.span t.mach.Machine.obs ~arg:marked_before_stw ~start:t.conc_start
        Obs_event.Conc_mark
  | Config.Stw -> ());
  (* Any thread suspended mid-increment holds packets; reclaim them so
     termination detection stays sound.  The threads notice their
     poisoned sessions at their next safe point. *)
  Tracer.confiscate_all t.tr;
  (* Retire every allocation cache: publishes allocation bits (one
     fence per cache with pending objects), so everything is traceable. *)
  List.iter (fun (m : Mctx.t) -> Heap.retire_cache t.hp m.Mctx.cache) t.muts;
  (* Stopping a thread synchronises it: drain all store buffers. *)
  Weakmem.fence_all t.mach.Machine.wm;
  ignore (Pool.recycle_deferred t.pl);
  (* Final card cleaning under the snapshot protocol (mutator fences
     already implied by the stop). *)
  (match t.cfg.Config.mode with
  | Config.Cgc | Config.Gen ->
      Card_clean.start_pass t.cl ~force_fences:(fun () -> ())
  | Config.Stw -> ());
  let workers = Int.max 1 (Int.min gc_workers (Sched.ncpus t.sched)) in
  (match (t.cfg.Config.load_balance, t.cfg.Config.mode) with
  | Config.Stealing, Config.Stw ->
      (* Section 4.4 ablation: Endo-style work-stealing mark stacks in
         place of work packets for the parallel STW mark. *)
      let stl = Stealing.create t.hp ~nworkers:workers in
      Parallel.run t.sched ~workers (fun wid ->
          List.iteri
            (fun i (m : Mctx.t) ->
              if i mod workers = wid then begin
                Array.iter
                  (fun v -> ignore (Stealing.push_root stl ~worker:wid v))
                  m.Mctx.roots;
                m.Mctx.stack_scanned <- true
              end)
            t.muts;
          if wid = 0 then begin
            Array.iter
              (fun v -> ignore (Stealing.push_root stl ~worker:wid v))
              t.globals;
            t.globals_scanned <- true
          end;
          Stealing.mark_worker stl ~worker:wid)
  | _ -> Parallel.run t.sched ~workers (fun wid -> stw_mark_worker t wid workers));
  (* A tracer that finds no output packet falls back to marking the
     object and dirtying its card (section 4.3).  Concurrently that is
     sound — a later cleaning pass retraces it — but here the final
     pass has already been snapshotted, so a card dirtied by overflow
     during the stop-the-world mark (which injected packet starvation
     makes routine) would never be rescanned and the object's children
     would be swept while live.  Re-snapshot and re-mark until no dirty
     card remains. *)
  while Card_table.dirty_count (Heap.cards t.hp) > 0 do
    Weakmem.fence_all t.mach.Machine.wm;
    Card_clean.start_pass t.cl ~force_fences:(fun () -> ());
    Parallel.run t.sched ~workers (fun wid -> stw_mark_worker t wid workers)
  done;
  Machine.flush t.mach;
  let mark_t1 = Machine.now t.mach in
  (* Sweep: in the pause, or begun here and left to [Sweeping]. *)
  let lazy_sweep =
    if t.cfg.Config.lazy_sweep then Some (Sweep.lazy_begin t.hp) else None
  in
  let live =
    match lazy_sweep with
    | Some _ -> live_estimate t
    | None ->
        (* Gen mode sweeps only the old space: the nursery above
           [old_limit] is bump-allocated and reclaimed wholesale by the
           minors, and must never reach the free list. *)
        let regs = Sweep.regions ~nslots:t.old_limit ~workers in
        let results = Array.make workers None in
        Parallel.run t.sched ~workers (fun wid ->
            let lo, hi = regs.(wid) in
            results.(wid) <- Some (Sweep.sweep_region t.hp ~lo ~hi));
        let results =
          Array.map
            (function Some r -> r | None -> assert false)
            results
        in
        Sweep.merge ~limit:t.old_limit t.hp results
  in
  Machine.flush t.mach;
  let sweep_t1 = Machine.now t.mach in
  (* Incremental compaction: evacuate the area the cycle start chose
     and fix up the remembered in-pointers, still inside the pause
     (section 2.3). *)
  let moved =
    if Compact.active t.cp then begin
      let moved = Compact.evacuate t.cp ~globals:t.globals in
      Machine.flush t.mach;
      moved
    end
    else 0
  in
  let compact_t1 = Machine.now t.mach in
  (* Statistics. *)
  let cost = t.mach.Machine.cost in
  let st = t.st in
  Stats.add st.Gstats.stw_cards (float_of_int (Card_clean.stw_cleaned t.cl));
  Stats.add st.Gstats.conc_cards (float_of_int (Card_clean.conc_cleaned t.cl));
  Stats.add st.Gstats.cc_ratio
    (float_of_int (Card_clean.stw_cleaned t.cl)
    /. float_of_int (Int.max 1 (Card_clean.conc_cleaned t.cl)));
  Stats.add st.Gstats.occupancy_end
    (float_of_int live /. float_of_int (Heap.nslots t.hp));
  Stats.add st.Gstats.traced_conc_slots (float_of_int marked_before_stw);
  Stats.add st.Gstats.traced_stw_slots
    (float_of_int (Tracer.marked_slots t.tr - marked_before_stw));
  if Stats.count t.cycle_factors >= 2 then
    Stats.add st.Gstats.fairness (Stats.stddev t.cycle_factors);
  let live_mb = float_of_int (live * 8) /. 1_048_576.0 in
  if live_mb > 0.0 then
    Stats.add st.Gstats.cas_per_mb
      (float_of_int (t.mach.Machine.cas_ops - t.cas_at_start) /. live_mb);
  st.Gstats.overflow_events <- Tracer.overflow_events t.tr;
  st.Gstats.max_deferred_packets <-
    Int.max st.Gstats.max_deferred_packets (Pool.max_deferred t.pl);
  st.Gstats.cycles <- st.Gstats.cycles + 1;
  (* Metering feedback. *)
  Metering.end_cycle t.meter ~l_observed:(live_estimate t)
    ~m_observed:
      ((Card_clean.conc_cleaned t.cl + Card_clean.stw_cleaned t.cl)
      * Arena.slots_per_card);
  (* Configured invariant verification (host-side, uncharged): marking
     is complete, caches are retired, sweep has rebuilt the free list
     and the overflow re-mark loop left no dirty card, so the strongest
     form of every invariant must hold right here. *)
  if t.cfg.Config.verify then begin
    let r =
      Verify.check ~heap:t.hp
        ~roots:(List.map (fun (m : Mctx.t) -> m.Mctx.roots) t.muts)
        ~globals:t.globals ~expect_marked:true ~expect_clean_cards:true
        ~label:(Printf.sprintf "cycle %d" t.cycle_no)
    in
    Obs.instant t.mach.Machine.obs ~arg:r.Verify.objects
      Obs_event.Verify_pass
  end;
  let pause = Sched.restart_world t.sched in
  let pause_end = Machine.now t.mach in
  let obs = t.mach.Machine.obs in
  Obs.span_at obs ~ts:(pause_end - pause) ~dur:pause Obs_event.Stw_pause;
  Obs.span_at obs ~ts:mark_t0 ~dur:(mark_t1 - mark_t0) Obs_event.Stw_mark;
  Obs.span_at obs ~ts:mark_t1 ~dur:(sweep_t1 - mark_t1) Obs_event.Stw_sweep;
  if moved > 0 then
    Obs.span_at obs ~ts:sweep_t1 ~dur:(compact_t1 - sweep_t1)
      Obs_event.Stw_compact;
  Obs.instant obs ~arg:t.cycle_no Obs_event.Cycle_end;
  Gstats.note_cycle st
    {
      Gstats.cycle = t.cycle_no;
      end_ms = Cost.ms_of_cycles cost pause_end;
      pause_ms = Cost.ms_of_cycles cost pause;
      mark_ms = Cost.ms_of_cycles cost (mark_t1 - mark_t0);
      sweep_ms = Cost.ms_of_cycles cost (sweep_t1 - mark_t1);
      compact_ms = Cost.ms_of_cycles cost (compact_t1 - sweep_t1);
      conc_cards = Card_clean.conc_cleaned t.cl;
      stw_cards = Card_clean.stw_cleaned t.cl;
      traced_conc = marked_before_stw;
      traced_stw = Tracer.marked_slots t.tr - marked_before_stw;
      evac_slots = moved;
      occupancy = float_of_int live /. float_of_int (Heap.nslots t.hp);
      degrade_force_finish = st.Gstats.degrade_force_finish;
      degrade_full_stw = st.Gstats.degrade_full_stw;
      degrade_compact = st.Gstats.degrade_compact;
    };
  set_state t
    (match lazy_sweep with Some lz -> Sweeping lz | None -> Idle);
  t.preconc_start <- pause_end

(* A full stop-the-world collection in baseline mode (or a degenerate CGC
   cycle where kickoff never fired before exhaustion).  A cycle already
   marking is finished as [in_flight] instead, and a start or a pause
   that another thread holds is waited out first. *)
let rec full_collect t ~evac ~in_flight reason =
  match t.state with
  | Idle | Sweeping _ ->
      start_cycle t ~evac;
      finalize t reason
  | Marking -> finalize t in_flight
  | Starting | Finalizing ->
      await_release t;
      full_collect t ~evac ~in_flight reason

let force_collect t =
  full_collect t ~evac:(steady_evac t) ~in_flight:Forced Forced

(* ------------------------------------------------------------------ *)
(* Incremental work on the allocation slow path                        *)

let do_increment t (m : Mctx.t) ~alloc =
  if marking t then begin
    let incr_t0 = Machine.now t.mach in
    (* Card-storm injection: mass-dirty a random batch of cards, as a
       pathological write-heavy mutator would, inflating the cleaning
       backlog mid-cycle. *)
    (match
       Fault.card_storm t.cfg.Config.faults
         ~ncards:(Card_table.ncards (Heap.cards t.hp))
     with
    | [] -> ()
    | storm ->
        let c = t.mach.Machine.cost in
        List.iter
          (fun card ->
            Machine.charge t.mach c.Cost.write_barrier;
            Card_table.dirty (Heap.cards t.hp) card)
          storm);
    (* Occasionally refresh the background-rate estimate Best. *)
    if t.alloc_window >= 8192 then begin
      Metering.observe_background t.meter ~bg_traced:t.bg_window_traced
        ~mutator_alloc:t.alloc_window;
      t.bg_window_traced <- 0;
      t.alloc_window <- 0
    end;
    let traced_so_far =
      Tracer.marked_slots t.tr + Tracer.retraced_slots t.tr
    in
    let work =
      Metering.increment_work t.meter ~traced:traced_so_far
        ~free:(free_estimate t) ~alloc
      + m.Mctx.trace_debt
    in
    let session = ref (Tracer.new_session t.tr) in
    scan_own_stack t !session m;
    scan_globals t !session;
    let traced = ref 0 in
    let retries = ref 3 in
    let continue = ref true in
    while !continue && !traced < work do
      let n = find_work t !session ~budget:(work - !traced) in
      if n > 0 then traced := !traced + n
      else if !retries > 0 && marking t then begin
        (* Momentary shortage: the work packets with the remaining tracing
           work are held by other threads mid-scan.  Release our own
           (empty) packets first — a waiting thread must hold nothing, or
           a rotating population of waiters would keep the Empty-pool
           termination criterion false forever — then give the holders a
           slice and retry. *)
        decr retries;
        Tracer.release t.tr !session;
        Machine.flush t.mach;
        Sched.yield ();
        session := Tracer.new_session t.tr
      end
      else continue := false
    done;
    (* Unfulfilled work is not forgiven: it carries into this mutator's
       next increment so the cycle's total assignment stays on pace. *)
    m.Mctx.trace_debt <- Int.max 0 (work - !traced);
    Tracer.release t.tr !session;
    Machine.flush t.mach;
    let complete = trace_complete t in
    (* The tracing factor is measured over increments that participated
       in tracing.  A thread that could not obtain any input packet at
       all "quits the tracing task" (section 4.3) and contributes no
       sample; and the increment that discovers global termination is not
       a starvation data point (its assignment no longer exists). *)
    if work > 0 && !traced > 0 && not complete then begin
      let f = float_of_int !traced /. float_of_int work in
      Stats.add t.st.Gstats.tracing_factor f;
      Stats.add t.cycle_factors f;
      (* Mirror the sample into the trace (fixed-point, x1e6) so the
         profiler can recompute the Table 4 load-balance statistics from
         the event stream alone. *)
      Obs.instant t.mach.Machine.obs
        ~arg:(int_of_float (Float.round (f *. 1e6)))
        Obs_event.Incr_factor
    end;
    if work > 0 then
      Obs.span t.mach.Machine.obs ~arg:!traced ~start:incr_t0
        Obs_event.Mut_increment;
    if complete then finalize t Completed
  end

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

let account t (m : Mctx.t) size =
  m.Mctx.alloc_slots <- m.Mctx.alloc_slots + size;
  t.st.Gstats.total_alloc_slots <- t.st.Gstats.total_alloc_slots + size;
  t.alloc_window <- t.alloc_window + size;
  match t.state with
  | Idle | Sweeping _ | Starting ->
      t.st.Gstats.preconc_slots <- t.st.Gstats.preconc_slots + size
  | Marking -> t.st.Gstats.conc_slots <- t.st.Gstats.conc_slots + size
  | Finalizing -> ()

let mark_new t =
  match t.state with
  | Idle | Sweeping _ | Starting -> false
  | Marking | Finalizing -> true

let note_black t size = if mark_new t then t.black_slots <- t.black_slots + size

(* Free space that needs no collection: advance the lazy sweep, or wait
   for a cycle start to finish it.  False when there is none to find. *)
let find_space t =
  match t.state with
  | Sweeping lz ->
      sweep_step t lz ~max_slots:8192;
      true
  | Starting ->
      await_release t;
      true
  | Idle | Marking | Finalizing -> false

let rec try_refill t (m : Mctx.t) ~min =
  Heap.refill_cache t.hp m.Mctx.cache ~min ~pref:cache_slots
  || (find_space t && try_refill t m ~min)

let rec try_alloc_large t ~size ~nrefs =
  match Heap.alloc_large t.hp ~size ~nrefs ~mark_new:(mark_new t) with
  | Some a -> Some a
  | None -> if find_space t then try_alloc_large t ~size ~nrefs else None

let pre_alloc_hook t m ~request =
  match t.cfg.Config.mode with
  | Config.Stw -> ()
  | Config.Cgc | Config.Gen -> (
      match t.state with
      | Idle | Sweeping _ ->
          if Metering.should_start t.meter ~free:(free_estimate t) then begin
            start_cycle t ~evac:(steady_evac t);
            do_increment t m ~alloc:request
          end
      | Marking -> do_increment t m ~alloc:request
      | Starting | Finalizing -> ())

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)

(* An allocation that fails even after a collection no longer gives up
   immediately: it climbs a ladder of typed escalation rungs, each a
   stronger (and more disruptive) collection, and raises the typed
   [Out_of_memory] only when the heap genuinely cannot satisfy the
   request:

     rung 1  force-finish the in-flight cycle (stop-the-world completion
             of its marking), or a degenerate full collection when no
             cycle was running;
     rung 2  a fresh full stop-the-world collection — a halted cycle's
             snapshot keeps everything allocated during that cycle alive
             (allocate-black), so a cycle started from scratch reclaims
             the floating garbage the first one could not;
     rung 3  an emergency compacting collection: the free list may hold
             enough total space in fragments too small for the request,
             and evacuation coalesces them (needs the packet tracer and
             in-pause sweep; degenerates to rung 2 otherwise).

   Each rung bumps its [Gstats] counter and emits a [Degrade_*] event. *)

let rung_force_finish t =
  t.st.Gstats.degrade_force_finish <- t.st.Gstats.degrade_force_finish + 1;
  Obs.instant t.mach.Machine.obs ~arg:t.cycle_no Obs_event.Degrade_force_finish;
  full_collect t ~evac:(steady_evac t) ~in_flight:Halted
    (match t.cfg.Config.mode with
    | Config.Cgc | Config.Gen -> Degenerate
    | Config.Stw -> Forced)

let rung_full_stw t =
  t.st.Gstats.degrade_full_stw <- t.st.Gstats.degrade_full_stw + 1;
  Obs.instant t.mach.Machine.obs ~arg:t.cycle_no Obs_event.Degrade_full_stw;
  force_collect t

let compaction_possible t =
  (not t.cfg.Config.lazy_sweep)
  && t.cfg.Config.load_balance = Config.Packets
  (* With a nursery carved off the top, emergency compaction would
     evacuate into (or free ranges out of) the nursery; the rung
     degenerates to a plain full collection instead. *)
  && t.old_limit = Heap.nslots t.hp

let rung_emergency_compact t =
  t.st.Gstats.degrade_compact <- t.st.Gstats.degrade_compact + 1;
  Obs.instant t.mach.Machine.obs ~arg:t.cycle_no Obs_event.Degrade_compact;
  (* An emergency cycle evacuates a larger area than the steady-state
     setting: the heap is nearly exhausted and the goal is
     defragmentation, not pause bounding. *)
  if compaction_possible t then
    full_collect t ~evac:(Some 0.125) ~in_flight:Forced Forced
  else force_collect t

let raise_oom t ~phase0 ~request =
  t.st.Gstats.oom_raised <- t.st.Gstats.oom_raised + 1;
  Obs.instant t.mach.Machine.obs ~arg:request Obs_event.Oom;
  raise
    (Out_of_memory
       {
         oom_phase = phase0;
         oom_request = request;
         oom_cycle = t.cycle_no;
         oom_free = Heap.free_slots t.hp;
         oom_live = live_estimate t;
         oom_nslots = Heap.nslots t.hp;
         oom_pool = Pool.counts t.pl;
         oom_rungs = 3;
       })

let degrade : 'a. t -> request:int -> attempt:(unit -> 'a option) -> 'a =
 fun t ~request ~attempt ->
  let phase0 = phase t in
  Obs.instant t.mach.Machine.obs Obs_event.Alloc_failure;
  rung_force_finish t;
  match attempt () with
  | Some a -> a
  | None -> (
      rung_full_stw t;
      match attempt () with
      | Some a -> a
      | None -> (
          rung_emergency_compact t;
          match attempt () with
          | Some a -> a
          | None -> raise_oom t ~phase0 ~request))

(* Promotion allocation (Gen mode): raw old-space slots for a survivor
   copy, climbing the same degradation ladder as ordinary allocation on
   exhaustion.  Safe to call mid-minor: until the caller rewrites a
   referent slot, the extent is unreachable, and if a ladder collection
   sweeps it back onto the free list the retried [Heap.alloc_raw] simply
   re-carves a fresh one. *)
let alloc_old t ~size =
  match Heap.alloc_raw t.hp ~size with
  | Some a -> a
  | None ->
      degrade t ~request:size ~attempt:(fun () -> Heap.alloc_raw t.hp ~size)

let rec alloc t (m : Mctx.t) ~nrefs ~size =
  if size >= large_object_slots then begin
    Machine.flush t.mach;
    pre_alloc_hook t m ~request:size;
    match try_alloc_large t ~size ~nrefs with
    | Some a ->
        note_black t size;
        account t m size;
        Machine.flush t.mach;
        a
    | None ->
        let a =
          degrade t ~request:size ~attempt:(fun () ->
              try_alloc_large t ~size ~nrefs)
        in
        note_black t size;
        account t m size;
        Machine.flush t.mach;
        a
  end
  else
    let a =
      Heap.cache_alloc_addr t.hp m.Mctx.cache ~size ~nrefs
        ~mark_new:(mark_new t)
    in
    if a <> Heap.no_addr then begin
      note_black t size;
      account t m size;
      a
    end
    else begin
        (* Slow path.  Retire (and publish) the old cache first so that
           the stack scan performed by the increment can validate this
           thread's objects through their allocation bits. *)
        Machine.flush t.mach;
        Heap.retire_cache t.hp m.Mctx.cache;
        pre_alloc_hook t m ~request:cache_slots;
        (* Gen mode: refill from the nursery first (running a minor
           collection when it is exhausted and the major is idle); the
           old-space free list is the fallback — large objects above and
           nursery overflow during a concurrent major land there. *)
        let gen_refilled =
          match t.gen_refill with Some f -> f m ~min:size | None -> false
        in
        if gen_refilled then alloc t m ~nrefs ~size
        else if try_refill t m ~min:size then alloc t m ~nrefs ~size
        else begin
          degrade t ~request:size ~attempt:(fun () ->
              if try_refill t m ~min:size then Some () else None);
          alloc t m ~nrefs ~size
        end
    end

(* ------------------------------------------------------------------ *)
(* Background tracing threads                                          *)

let background_body t () =
  let idle_nap = t.mach.Machine.cost.Cost.cycles_per_ms / 4 in
  (* The idle nap is a poll on whatever would make the loop below do
     more than nap again.  The predicate reads host state only (the stop
     flag, the phase, the lazy sweep's cursor, the injector's armed
     scenarios), so it meets [Sched.poll]'s contract.  [Fault.bg_stall]
     draws nothing unless bg-stall is armed; when it is, the predicate
     always holds, so each nap returns at its first wake-up and the
     stall is drawn once per nap, as with a plain sleep. *)
  let stall_armed = Fault.armed t.cfg.Config.faults Fault.Bg_stall in
  let ready () =
    stall_armed
    || Sched.stop_requested t.sched
    ||
    match t.state with
    | Marking | Sweeping _ -> true
    | Idle | Starting | Finalizing -> false
  in
  while not (Sched.stop_requested t.sched) do
    (* Background-stall injection: the low-priority tracer is descheduled
       for a while, starving the cycle of its free tracing credit. *)
    (let stall = Fault.bg_stall t.cfg.Config.faults in
     if stall > 0 then Sched.sleep stall);
    match t.state with
    | Marking ->
        let session = Tracer.new_session t.tr in
        let n = find_work t session ~budget:bg_chunk in
        Tracer.release t.tr session;
        Machine.flush t.mach;
        if n > 0 then begin
          t.bg_window_traced <- t.bg_window_traced + n;
          Obs.instant t.mach.Machine.obs ~arg:n Obs_event.Bg_chunk;
          if trace_complete t then finalize t Completed;
          Sched.yield ()
        end
        else begin
          if trace_complete t then finalize t Completed;
          Sched.sleep (idle_nap / 4)
        end
    | Sweeping lz ->
        (* Section 7: spread deferred sweeping over the idle background
           threads too, so the free list refills before mutators must
           sweep on their own allocation paths. *)
        sweep_step t lz ~max_slots:16384;
        Machine.flush t.mach;
        Sched.yield ()
    | Idle | Starting | Finalizing -> Sched.poll idle_nap ~ready
  done

let start_background t =
  if not t.bg_started then begin
    t.bg_started <- true;
    match t.cfg.Config.mode with
    | Config.Stw -> ()
    | Config.Cgc | Config.Gen ->
        for i = 1 to t.cfg.Config.n_background do
          ignore
            (Sched.spawn t.sched
               ~name:(Printf.sprintf "gc-background-%d" i)
               ~prio:Sched.Low (background_body t))
        done
  end
