module Heap = Cgc_heap.Heap
module Arena = Cgc_heap.Arena
module Alloc_bits = Cgc_heap.Alloc_bits
module Freelist = Cgc_heap.Freelist
module Machine = Cgc_smp.Machine
module Cost = Cgc_smp.Cost
module Bitvec = Cgc_util.Bitvec

(* A remembered-set entry packs (parent, slot): slots are bounded by the
   object-size field (26 bits), far below this shift. *)
let slot_bits = 20
let slot_mask = (1 lsl slot_bits) - 1

type t = {
  heap : Heap.t;
  mach : Machine.t;
  mutable lo : int;
  mutable hi : int;
  mutable is_active : bool;
  mutable remset : int array;
  mutable rn : int;
  fwd : (int, int) Hashtbl.t;
  dests : (int, unit) Hashtbl.t;
  pins : (int, unit) Hashtbl.t;
  mutable evac_objs : int;
  mutable evac_slots : int;
  mutable nfixups : int;
}

let create heap =
  {
    heap;
    mach = Heap.machine heap;
    lo = 0;
    hi = 0;
    is_active = false;
    remset = Array.make 1024 0;
    rn = 0;
    fwd = Hashtbl.create 256;
    dests = Hashtbl.create 256;
    pins = Hashtbl.create 64;
    evac_objs = 0;
    evac_slots = 0;
    nfixups = 0;
  }

let choose_area t ~cycle ~fraction =
  let n = Heap.nslots t.heap in
  let areas = Int.max 1 (int_of_float (1.0 /. fraction)) in
  let span = n / areas in
  let which = cycle mod areas in
  t.lo <- Int.max 1 (which * span);
  t.hi <- Int.min n (t.lo + span);
  t.is_active <- true;
  t.rn <- 0;
  Hashtbl.reset t.fwd;
  Hashtbl.reset t.dests;
  Hashtbl.reset t.pins

let active t = t.is_active

let area t = if t.is_active then (t.lo, t.hi) else (0, 0)

let in_area t addr = t.is_active && addr >= t.lo && addr < t.hi

let pin_addr t addr = Hashtbl.replace t.pins addr ()

let record_ref t ~parent ~idx ~child =
  if idx > slot_mask then pin_addr t child
  else begin
  if t.rn = Array.length t.remset then begin
    let bigger = Array.make (2 * t.rn) 0 in
    Array.blit t.remset 0 bigger 0 t.rn;
    t.remset <- bigger
  end;
  t.remset.(t.rn) <- (parent lsl slot_bits) lor idx;
  t.rn <- t.rn + 1
  end

let pin t addr = if in_area t addr then pin_addr t addr

let pinned_count t = Hashtbl.length t.pins

let forward t addr =
  match Hashtbl.find_opt t.fwd addr with Some a -> a | None -> addr

(* Allocate a destination, preferring space outside the area (in-area
   attempts are set aside and returned afterwards).  When the free list
   only has in-area space left, an in-area destination is used — the
   object is then merely relocated within the area, which is correct but
   contributes no compaction; the destination is remembered so the
   evacuation scan does not try to move the fresh copy again. *)
let alloc_outside t size =
  let fl = Heap.freelist t.heap in
  let stashed = ref [] in
  let rec go tries =
    if tries = 0 then None
    else
      match Freelist.alloc fl size with
      | None -> None
      | Some a when a + size > t.lo && a < t.hi ->
          stashed := (a, size) :: !stashed;
          go (tries - 1)
      | Some a -> Some a
  in
  let r = go 16 in
  List.iter (fun (addr, size) -> Freelist.add fl ~addr ~size) !stashed;
  match r with
  | Some a -> Some a
  | None -> Freelist.alloc fl size

let evacuate t ~globals =
  if not t.is_active then 0
  else begin
    let arena = Heap.arena t.heap in
    let abits = Heap.alloc_bits t.heap in
    let mark = Heap.mark_bits t.heap in
    let c = t.mach.Machine.cost in
    let moved_slots = ref 0 in
    (* 1. Copy live unpinned objects out, building the forwarding table.
       Sweep ran just before us, so live == marked, and the vacated
       extents can go straight back to the free list. *)
    let freed = ref [] in
    let a = ref (Bitvec.next_set_below mark t.lo t.hi) in
    while !a < t.hi do
      let addr = !a in
      let size = Arena.size_of_sc arena addr in
      if (not (Hashtbl.mem t.pins addr)) && not (Hashtbl.mem t.dests addr)
      then begin
        match alloc_outside t size with
        | None -> () (* no room: leave it in place, still live *)
        | Some dst ->
            Hashtbl.replace t.dests dst ();
            Machine.charge t.mach
              (c.Cost.alloc_obj + (size * c.Cost.alloc_slot));
            for i = 0 to size - 1 do
              Arena.write_slot arena (dst + i) (Arena.read_slot_sc arena (addr + i))
            done;
            Alloc_bits.set abits dst;
            Bitvec.set mark dst;
            Hashtbl.replace t.fwd addr dst;
            Alloc_bits.clear abits addr;
            Bitvec.clear mark addr;
            freed := (addr, size) :: !freed;
            t.evac_objs <- t.evac_objs + 1;
            t.evac_slots <- t.evac_slots + size;
            moved_slots := !moved_slots + size
      end;
      a := Bitvec.next_set_below mark (Int.max (addr + size) (addr + 1)) t.hi
    done;
    Machine.flush t.mach;
    (* 2. Fix up the remembered slots.  A recorded parent may itself have
       moved; and a slot is rewritten only if it still points into the
       area and the target actually moved. *)
    for i = 0 to t.rn - 1 do
      let e = t.remset.(i) in
      let parent = forward t (e lsr slot_bits) in
      let idx = e land slot_mask in
      Machine.charge t.mach c.Cost.trace_slot;
      let v = Arena.ref_get_sc arena parent idx in
      if v >= t.lo && v < t.hi then
        match Hashtbl.find_opt t.fwd v with
        | Some dst ->
            Arena.ref_set_raw arena parent idx dst;
            t.nfixups <- t.nfixups + 1
        | None -> ()
    done;
    (* 3. Global roots are precise: rewrite them directly. *)
    Array.iteri
      (fun i v ->
        if v >= t.lo && v < t.hi then
          match Hashtbl.find_opt t.fwd v with
          | Some dst -> globals.(i) <- dst
          | None -> ())
      globals;
    (* 4. Return the vacated extents to the free list. *)
    List.iter
      (fun (addr, size) -> Freelist.add (Heap.freelist t.heap) ~addr ~size)
      !freed;
    Machine.flush t.mach;
    t.is_active <- false;
    !moved_slots
  end

let evacuated_objects t = t.evac_objs
let fixups t = t.nfixups
