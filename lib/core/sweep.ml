module Heap = Cgc_heap.Heap
module Arena = Cgc_heap.Arena
module Alloc_bits = Cgc_heap.Alloc_bits
module Freelist = Cgc_heap.Freelist
module Machine = Cgc_smp.Machine
module Cost = Cgc_smp.Cost
module Bitvec = Cgc_util.Bitvec
module Obs = Cgc_obs.Obs
module Obs_event = Cgc_obs.Event

type region = {
  mutable gaps : (int * int) list; (* reversed (addr, len) *)
  mutable first_mark : int; (* max_int when the region has no marks *)
  mutable last_end : int; (* end of last live object; -1 when no marks *)
  mutable live : int;
}

(* Slots per charged [sweep_word]: a cost-model constant, not the
   mark bits' layout, so the simulated charge stays the same. *)
let slots_per_sweep_word = 62

let charge_scan heap ~lo ~hi =
  let mach = Heap.machine heap in
  let words = ((hi - lo) / slots_per_sweep_word) + 1 in
  Machine.charge mach (words * mach.Machine.cost.Cost.sweep_word)

(* The first head at or past [cur_end], the end of the object at [head].
   The search starts at [head + 1], which does not depend on the header
   load that gave [cur_end]: the host CPU runs ahead to the next head and
   its header load while that one is in flight, so consecutive heads'
   loads overlap instead of each waiting for the last.  Only a mark bit
   inside the object's own extent (set through a stale or corrupt
   reference) sends the search on from [cur_end]. *)
let next_head mark ~head ~cur_end hi =
  let m = Bitvec.next_set_below mark (head + 1) hi in
  if m < cur_end then Bitvec.next_set_below mark cur_end hi else m

let sweep_region heap ~lo ~hi =
  let mach = Heap.machine heap in
  let t0 = Machine.now mach in
  let finish r =
    Obs.span mach.Machine.obs ~arg:r.live ~start:t0 Obs_event.Sweep_chunk;
    r
  in
  let r = { gaps = []; first_mark = max_int; last_end = -1; live = 0 } in
  let mark = Heap.mark_bits heap in
  let arena = Heap.arena heap in
  charge_scan heap ~lo ~hi;
  (* Gap enumeration over the mark bits: every set bit in [lo, hi) at or
     past the end of the last accepted object is an object head.  The
     scan never reads a word past [hi]. *)
  let cur_end = ref (-1) in
  let m = ref (Bitvec.next_set_below mark lo hi) in
  while !m < hi do
    let head = !m in
    if r.first_mark = max_int then r.first_mark <- head
    else if head > !cur_end then
      r.gaps <- (!cur_end, head - !cur_end) :: r.gaps;
    let size = Arena.size_of arena head in
    r.live <- r.live + size;
    cur_end := head + size;
    m := next_head mark ~head ~cur_end:!cur_end hi
  done;
  if r.first_mark <> max_int then r.last_end <- !cur_end;
  Machine.flush mach;
  finish r

let gaps r = List.rev r.gaps
let live r = r.live

let add_free heap ~addr ~size =
  let mach = Heap.machine heap in
  Machine.charge mach mach.Machine.cost.Cost.sweep_chunk;
  Alloc_bits.clear_range (Heap.alloc_bits heap) addr size;
  Freelist.add (Heap.freelist heap) ~addr ~size

let merge ?limit heap regions =
  let fl = Heap.freelist heap in
  Freelist.clear fl;
  let prev_end = ref 1 in
  let live = ref 0 in
  Array.iter
    (fun r ->
      if r.first_mark <> max_int then begin
        if r.first_mark > !prev_end then
          add_free heap ~addr:!prev_end ~size:(r.first_mark - !prev_end);
        List.iter
          (fun (addr, size) -> add_free heap ~addr ~size)
          (List.rev r.gaps);
        live := !live + r.live;
        prev_end := Int.max !prev_end r.last_end
      end)
    regions;
  let n = match limit with Some l -> l | None -> Heap.nslots heap in
  if n > !prev_end then add_free heap ~addr:!prev_end ~size:(n - !prev_end);
  Machine.flush (Heap.machine heap);
  !live

let regions ~nslots ~workers =
  let workers = Int.max 1 workers in
  let span = (nslots - 1 + workers - 1) / workers in
  Array.init workers (fun i ->
      let lo = 1 + (i * span) in
      let hi = Int.min nslots (lo + span) in
      (lo, hi))

type lazy_t = {
  mutable pos : int;
  mutable prev_end : int;
  mutable llive : int;
  mutable fin : bool;
}

let lazy_begin heap =
  Freelist.clear (Heap.freelist heap);
  { pos = 1; prev_end = 1; llive = 0; fin = false }

let lazy_step heap lz ~max_slots ~on_finish =
  if lz.fin then false
  else begin
    let n = Heap.nslots heap in
    let pos0 = lz.pos in
    let hi = Int.min n (lz.pos + max_slots) in
    let mark = Heap.mark_bits heap in
    let arena = Heap.arena heap in
    charge_scan heap ~lo:lz.pos ~hi;
    (* Same head-skipping gap enumeration as [sweep_region], windowed:
       walk the heads in [start, hi), emitting each free gap as a chunk.
       [crossed] records that the last object ran past the window edge —
       in that case the cursor parks at its end and no partial run is
       emitted, matching the cursor-based formulation exactly. *)
    let start = Int.max lz.pos lz.prev_end in
    let crossed = ref false in
    let m = ref (Bitvec.next_set_below mark start hi) in
    while !m < hi do
      let head = !m in
      if head > lz.prev_end then
        add_free heap ~addr:lz.prev_end ~size:(head - lz.prev_end);
      let size = Arena.size_of arena head in
      lz.llive <- lz.llive + size;
      lz.prev_end <- head + size;
      lz.pos <- head + size;
      if lz.pos >= hi then crossed := true;
      m := next_head mark ~head ~cur_end:lz.prev_end hi
    done;
    if not !crossed then begin
      (* Emit the partial free run up to the window edge.  This may
         split a long run across steps; the resulting chunks are still
         usable and the fragmentation washes out at the next full
         sweep. *)
      if hi > lz.prev_end then
        add_free heap ~addr:lz.prev_end ~size:(hi - lz.prev_end);
      lz.prev_end <- Int.max lz.prev_end hi;
      lz.pos <- hi;
      if hi >= n then begin
        lz.fin <- true;
        on_finish ()
      end
    end;
    Machine.flush (Heap.machine heap);
    Obs.instant
      (Heap.machine heap).Machine.obs
      ~arg:(lz.pos - pos0) Obs_event.Sweep_chunk;
    true
  end

let lazy_pos lz = lz.pos
let lazy_live lz = lz.llive

let lazy_finish heap lz =
  while not lz.fin do
    ignore (lazy_step heap lz ~max_slots:65536 ~on_finish:ignore)
  done
