module Heap = Cgc_heap.Heap
module Arena = Cgc_heap.Arena
module Alloc_bits = Cgc_heap.Alloc_bits
module Card_table = Cgc_heap.Card_table
module Machine = Cgc_smp.Machine
module Cost = Cgc_smp.Cost
module Weakmem = Cgc_smp.Weakmem
module Obs = Cgc_obs.Obs
module Event = Cgc_obs.Event
module Collector = Cgc_core.Collector
module Config = Cgc_core.Config
module Gstats = Cgc_core.Gstats
module Mctx = Cgc_core.Mctx
module Verify = Cgc_core.Verify
module Histogram = Cgc_util.Histogram
module Ewma = Cgc_util.Ewma

let nursery_fraction = 0.125

type t = {
  coll : Collector.t;
  hp : Heap.t;
  mach : Machine.t;
  young : Card_table.t;  (** old->young remembered set *)
  n_lo : int;  (** first nursery slot *)
  n_hi : int;  (** one past the last nursery slot *)
  verify : bool;
  mutable bump : int;  (** nursery carve pointer, in [n_lo, n_hi] *)
  mutable pins_ahead : (int * int) list;
      (** pinned extents at or above [bump], ascending — the carver
          steps over them *)
  mutable pin_extents : (int * int) list;
      (** all pinned [(addr, size)] extents, ascending, as of the last
          minor *)
  pinned : (int, unit) Hashtbl.t;  (** membership for the same set *)
  fwd : (int, int) Hashtbl.t;  (** young address -> promoted copy *)
  mutable worklist : int list;  (** promoted copies whose refs are unscanned *)
  survival : Ewma.t;  (** smoothed survivor fraction across minors *)
  mutable promoted_this : int;  (** slots promoted by the current minor *)
  mutable pinned_this : int;  (** slots pinned in place by the current minor *)
  mutable promoted_list : int list;  (** promoted addresses (verify only) *)
}

let n_lo t = t.n_lo
let n_hi t = t.n_hi
let young t = t.young
let pinned_slots t = t.pinned_this

let nursery_used t =
  float_of_int (t.bump - t.n_lo) /. float_of_int (t.n_hi - t.n_lo)

let promotion_rate t = Ewma.value t.survival
let in_nursery t v = v >= t.n_lo && v < t.n_hi

(* ------------------------------------------------------------------ *)
(* Evacuation *)

(* The survivor destination for a live young object: itself when pinned
   (referenced from some root array, so a suspended mutator may hold the
   address in a local — exactly the objects [Compact] pins for the same
   reason), otherwise a copy in the old space.  The copy extent comes
   from [Collector.alloc_old] (raw slots, no header, no bits): the
   complete object — header included — is copied over it and only then
   published, so a conservative scan can never observe a half-formed
   survivor.  Promoted copies need no mark bit: minors run only while
   the major collector is Idle, and the next cycle starts by clearing
   all marks. *)
let evacuate t v =
  if Hashtbl.mem t.pinned v then v
  else
    match Hashtbl.find_opt t.fwd v with
    | Some dst -> dst
    | None ->
        let arena = Heap.arena t.hp in
        let c = t.mach.Machine.cost in
        let size = Arena.size_of_sc arena v in
        let dst = Collector.alloc_old t.coll ~size in
        for k = 0 to size - 1 do
          Arena.write_slot arena (dst + k) (Arena.read_slot_sc arena (v + k))
        done;
        Alloc_bits.set (Heap.alloc_bits t.hp) dst;
        Machine.charge t.mach (c.Cost.trace_obj + (size * c.Cost.trace_slot));
        Hashtbl.replace t.fwd v dst;
        t.worklist <- dst :: t.worklist;
        t.promoted_this <- t.promoted_this + size;
        if t.verify then t.promoted_list <- dst :: t.promoted_list;
        dst

(* Scan one survivor's reference slots, evacuating its young children.
   A child that stays young (pinned) leaves a young reference behind:
   when the scanned object lives in the old space, that edge must stay
   in the remembered set — re-dirty its young card — or the next minor
   would miss it. *)
let scan_object t a ~old =
  let arena = Heap.arena t.hp in
  let keep = ref false in
  let nrefs = Arena.nrefs_of_sc arena a in
  for i = 0 to nrefs - 1 do
    let v = Arena.ref_get_sc arena a i in
    if in_nursery t v then begin
      let nv = evacuate t v in
      if nv <> v then Arena.ref_set_raw arena a i nv else keep := true
    end
  done;
  if old && !keep then Card_table.dirty t.young (Arena.card_of_addr a)

(* Transitive closure over the promoted copies (explicit worklist, LIFO:
   the order is part of the deterministic trace contract). *)
let rec drain t =
  match t.worklist with
  | [] -> ()
  | dst :: rest ->
      t.worklist <- rest;
      scan_object t dst ~old:true;
      drain t

let run_verify t ~stage ~caches ~promoted ~label =
  Verify.check_nursery ~heap:t.hp ~young:t.young ~n_lo:t.n_lo ~n_hi:t.n_hi
    ~bump:t.bump ~pins:t.pin_extents ~caches ~promoted ~stage ~label

(* ------------------------------------------------------------------ *)
(* The minor collection *)

let minor t ~used =
  let arena = Heap.arena t.hp in
  let abits = Heap.alloc_bits t.hp in
  let c = t.mach.Machine.cost in
  let st = Collector.stats t.coll in
  let obs = t.mach.Machine.obs in
  (* Bill the slow path's pending debt before timing the pause. *)
  Machine.flush t.mach;
  let t0 = Machine.now t.mach in
  Obs.instant obs ~arg:used Event.Minor_start;
  let muts = Collector.mutators t.coll in
  (* Nursery cache extents, captured before retirement for the verifier
     (old-space caches — installed while a minor was deferred — are not
     nursery chunks and are excluded). *)
  let extents =
    if t.verify then
      List.filter
        (fun (base, _, limit) -> limit > 0 && base >= t.n_lo)
        (List.map (fun m -> Heap.cache_extent m.Mctx.cache) muts)
    else []
  in
  (* Publish every allocation cache: the conservative root filter and
     the remembered-set walk read committed allocation bits.  Nursery
     chunks must be dropped anyway (the nursery resets below); old-space
     caches are simply refilled on their owner's next slow path. *)
  List.iter (fun m -> Heap.retire_cache t.hp m.Mctx.cache) muts;
  Weakmem.fence_all t.mach.Machine.wm;
  let label = Printf.sprintf "minor %d" (st.Gstats.minors + 1) in
  if t.verify then
    run_verify t ~stage:`Pre ~caches:extents ~promoted:[] ~label;
  t.promoted_this <- 0;
  t.pinned_this <- 0;
  t.promoted_list <- [];
  (* Pin pass: every young object referenced from a root array stays at
     its address.  A mutator suspended mid-transaction mirrors its live
     locals in its root array (the discipline [Compact] already relies
     on), but the local itself cannot be rewritten — so a root-reachable
     young object must not move.  The full pin set is computed before
     anything is evacuated. *)
  Hashtbl.reset t.pinned;
  let pin_scan = ref [] in
  List.iter
    (fun m ->
      Array.iter
        (fun v ->
          if
            v >= t.n_lo && Arena.in_heap arena v
            && Alloc_bits.is_set_sc abits v
            && Arena.header_valid_sc arena v
            && not (Hashtbl.mem t.pinned v)
          then begin
            Hashtbl.replace t.pinned v ();
            let size = Arena.size_of_sc arena v in
            t.pinned_this <- t.pinned_this + size;
            Machine.charge t.mach c.Cost.trace_obj;
            pin_scan := v :: !pin_scan
          end)
        m.Mctx.roots)
    muts;
  (* The global table is precise.  A pinned referent stays young (the
     store that published it mirrored a rooted local); globals are
     rescanned by every minor, so no remembered-set entry is needed. *)
  let g = Collector.globals_array t.coll in
  for i = 0 to Array.length g - 1 do
    let v = g.(i) in
    if in_nursery t v then g.(i) <- evacuate t v
  done;
  (* Old->young remembered set: snapshot registers and clears the dirty
     cards (all old-space cards — the barrier dirties the parent's
     card).  Objects are found through committed allocation bits, so a
     parent swept dead by an earlier major is skipped, not scanned.
     [scan_object ~old:true] re-dirties the card when a young (pinned)
     referent remains. *)
  let cards = Card_table.snapshot t.young in
  List.iter
    (fun card ->
      Heap.iter_objects_on_card t.hp card (fun a ->
          if a < t.n_lo then scan_object t a ~old:true))
    cards;
  (* Pinned survivors keep their address but their children still
     evacuate; while pinned they are rescanned by every minor, so no
     remembered-set entry is needed for young->young edges. *)
  List.iter (fun a -> scan_object t a ~old:false) (List.rev !pin_scan);
  drain t;
  (* Reset the nursery: clear allocation bits in the gaps between the
     pinned extents and rewind the carve pointer (the carver steps over
     the pins).  Stale nursery mark bits are harmless — the next major
     cycle begins by clearing every mark bit. *)
  let pins =
    List.sort (fun (a, _) (b, _) -> Int.compare a b)
      (Hashtbl.fold
         (fun a () acc -> (a, Arena.size_of_sc arena a) :: acc)
         t.pinned [])
  in
  let rec clear_gaps lo = function
    | [] -> if lo < t.n_hi then Alloc_bits.clear_range abits lo (t.n_hi - lo)
    | (pa, ps) :: rest ->
        if lo < pa then Alloc_bits.clear_range abits lo (pa - lo);
        clear_gaps (pa + ps) rest
  in
  clear_gaps t.n_lo pins;
  t.pin_extents <- pins;
  t.pins_ahead <- pins;
  t.bump <- t.n_lo;
  Hashtbl.reset t.fwd;
  Weakmem.fence_all t.mach.Machine.wm;
  if t.verify then
    run_verify t ~stage:`Post ~caches:[] ~promoted:t.promoted_list ~label;
  (* One flush: the whole minor is billed to the allocating mutator. *)
  Machine.flush t.mach;
  let t1 = Machine.now t.mach in
  let promoted = t.promoted_this in
  Obs.instant obs ~arg:promoted Event.Promote;
  Obs.span_at obs ~arg:promoted ~ts:t0 ~dur:(t1 - t0) Event.Minor_done;
  st.Gstats.minors <- st.Gstats.minors + 1;
  st.Gstats.promoted_slots <- st.Gstats.promoted_slots + promoted;
  Histogram.add st.Gstats.minor_pause_ms
    (Cost.ms_of_cycles t.mach.Machine.cost (t1 - t0));
  Ewma.observe t.survival
    (if used > 0 then
       float_of_int (promoted + t.pinned_this) /. float_of_int used
     else 0.)

(* ------------------------------------------------------------------ *)
(* Hooks installed into the collector *)

(* Write-barrier extension: [Collector.set_ref] has already charged the
   barrier and dirtied the major card; record the old->young edge in the
   remembered set (keyed by the parent's header card). *)
let barrier t ~parent ~value =
  if parent < t.n_lo && value >= t.n_lo then
    Card_table.dirty t.young (Arena.card_of_addr parent)

(* Carve [need] slots (preferably [Collector.cache_slots]) out of the
   nursery, stepping over pinned extents.  [None] means no gap fits:
   time for a minor (or the old-space fallback). *)
let rec carve t ~need =
  let gap_end =
    match t.pins_ahead with (pa, _) :: _ -> pa | [] -> t.n_hi
  in
  if t.bump + need <= gap_end then begin
    let chunk = Int.min Collector.cache_slots (gap_end - t.bump) in
    let chunk = Int.max chunk need in
    let base = t.bump in
    t.bump <- base + chunk;
    Some (base, t.bump)
  end
  else
    match t.pins_ahead with
    | (pa, ps) :: rest ->
        (* The gap before this pin is too small; skip past it (the
           sliver stays unused until the next minor re-opens it). *)
        t.bump <- pa + ps;
        t.pins_ahead <- rest;
        carve t ~need
    | [] -> None

let install t (m : Mctx.t) ~base ~limit =
  Heap.install_cache t.hp m.Mctx.cache ~base ~limit;
  Obs.instant t.mach.Machine.obs ~arg:(t.n_hi - t.bump) Event.Nursery_fill

(* Allocation-cache refill from the nursery.  False sends the slow path
   to the old-space free list: a request larger than the nursery, a
   nursery so pinned-up that no gap fits even after a minor, or an
   exhausted nursery while a concurrent major phase is in flight (a
   minor must not run concurrently with marking — the deferral is
   counted, and the next Idle-time exhaustion collects as usual). *)
let refill t m ~min:need =
  if need > t.n_hi - t.n_lo then false
  else
    match carve t ~need with
    | Some (base, limit) ->
        install t m ~base ~limit;
        true
    | None -> (
        match Collector.phase t.coll with
        | Collector.Idle -> (
            minor t ~used:(t.bump - t.n_lo);
            match carve t ~need with
            | Some (base, limit) ->
                install t m ~base ~limit;
                true
            | None -> false)
        | Collector.Marking | Collector.Finalizing ->
            let st = Collector.stats t.coll in
            st.Gstats.minor_deferred <- st.Gstats.minor_deferred + 1;
            false)

let create coll ~nursery_slots =
  let hp = Collector.heap coll in
  let mach = Heap.machine hp in
  let cfg = Collector.config coll in
  let n_lo = Heap.reserve_top hp ~slots:nursery_slots in
  let n_hi = Heap.nslots hp in
  let young =
    Card_table.create mach ~ncards:(Card_table.ncards (Heap.cards hp))
  in
  let t =
    {
      coll;
      hp;
      mach;
      young;
      n_lo;
      n_hi;
      verify = cfg.Config.verify;
      bump = n_lo;
      pins_ahead = [];
      pin_extents = [];
      pinned = Hashtbl.create 64;
      fwd = Hashtbl.create 256;
      worklist = [];
      survival = Ewma.create ~init:0. ();
      promoted_this = 0;
      pinned_this = 0;
      promoted_list = [];
    }
  in
  Collector.install_gen coll ~old_limit:n_lo
    ~barrier:(fun ~parent ~value -> barrier t ~parent ~value)
    ~refill:(fun m ~min -> refill t m ~min);
  t
