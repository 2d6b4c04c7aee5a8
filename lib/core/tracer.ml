module Heap = Cgc_heap.Heap
module Arena = Cgc_heap.Arena
module Alloc_bits = Cgc_heap.Alloc_bits
module Card_table = Cgc_heap.Card_table
module Pool = Cgc_packets.Pool
module Packet = Cgc_packets.Packet
module Machine = Cgc_smp.Machine
module Weakmem = Cgc_smp.Weakmem
module Fence = Cgc_smp.Fence
module Cost = Cgc_smp.Cost

type session = {
  mutable input : Packet.t option;
  mutable output : Packet.t option;
  mutable is_stolen : bool;
}

type t = {
  cfg : Config.t;
  heap : Heap.t;
  pl : Pool.t;
  mach : Machine.t;
  mutable sessions : session list;
  mutable compact : Compact.t option;
  mutable marked : int;
  mutable retraced : int;
  mutable overflows : int;
  mutable corrupt : int;
  in_place : bool;
      (* SC memory and batched mark fences: a packet store draws no
         weak-memory PRNG value and fences nothing, so [acquire_input]
         may filter an all-safe packet in place *)
  mutable scratch_safe : int array;
  mutable scratch_unsafe : int array;
      (* reusable partition buffers for [acquire_input]'s allocation-bit
         filter; grown to packet capacity on first use.  Safe to share
         across the (self-)recursive calls: the recursion only happens
         after both buffers have been fully drained back into packets. *)
}

let create cfg heap pl =
  let mach = Heap.machine heap in
  {
    cfg;
    heap;
    pl;
    mach;
    in_place =
      Weakmem.mode mach.Machine.wm = Weakmem.Sc
      && not (Pool.naive_mark_fence pl);
    sessions = [];
    compact = None;
    marked = 0;
    retraced = 0;
    overflows = 0;
    corrupt = 0;
    scratch_safe = [||];
    scratch_unsafe = [||];
  }

let set_compactor t c = t.compact <- Some c

let new_session t =
  let s = { input = None; output = None; is_stolen = false } in
  t.sessions <- s :: t.sessions;
  s

let stolen s = s.is_stolen

let unregister t s = t.sessions <- List.filter (fun s' -> s' != s) t.sessions

let release t s =
  if not s.is_stolen then begin
    (match s.output with
    | Some p ->
        Pool.put t.pl p;
        s.output <- None
    | None -> ());
    (match s.input with
    | Some p ->
        Pool.put t.pl p;
        s.input <- None
    | None -> ())
  end;
  unregister t s

let confiscate_all t =
  List.iter
    (fun s ->
      if not s.is_stolen then begin
        s.is_stolen <- true;
        (match s.output with
        | Some p ->
            Pool.put t.pl p;
            s.output <- None
        | None -> ());
        match s.input with
        | Some p ->
            Pool.put t.pl p;
            s.input <- None
        | None -> ()
      end)
    t.sessions;
  t.sessions <- []

(* Whether every entry of [p] already has its allocation bit set — a
   committed-state test, exact only where reads are never masked (SC). *)
let all_safe abits p =
  let rec go i =
    i < 0 || (Alloc_bits.is_set_sc abits (Packet.get_sc p i) && go (i - 1))
  in
  go (Packet.count p - 1)

(* Acquire an input packet, applying the section 5.2 allocation-bit
   filtering.  Unsafe entries are moved to a deferred packet.  Returns a
   packet guaranteed to contain only safe entries (it may come back empty
   after filtering, in which case we retry a bounded number of times). *)
let rec acquire_input ?(tries = 3) t =
  if tries = 0 then None
  else
    match Pool.get_input t.pl with
    | None -> None
    | Some p ->
        if not t.cfg.Config.defer_protocol then Some p
        else if t.in_place && all_safe (Heap.alloc_bits t.heap) p then begin
          (* Every entry is safe: the summed per-entry charge, the fence
             and the reversal are exactly what popping each entry and
             pushing it back leaves (a packet from [get_input] is never
             empty).  Only where a packet store is a plain write. *)
          Machine.charge t.mach
            (Packet.count p * t.mach.Machine.cost.Cost.trace_slot);
          Machine.fence t.mach Fence.Packet_defer;
          Packet.reverse p;
          Some p
        end
        else begin
          let abits = Heap.alloc_bits t.heap in
          let n = Packet.count p in
          if Array.length t.scratch_safe < n then begin
            t.scratch_safe <- Array.make n 0;
            t.scratch_unsafe <- Array.make n 0
          end;
          let safe = t.scratch_safe and nsafe = ref 0 in
          let unsafe = t.scratch_unsafe and nunsafe = ref 0 in
          (* Step 2 of the protocol: test allocation bits, partitioning. *)
          let rec drain () =
            let v = Pool.pop_raw t.pl p in
            if v <> Pool.no_entry then begin
              Machine.charge t.mach t.mach.Machine.cost.Cost.trace_slot;
              if Alloc_bits.is_set abits v then begin
                safe.(!nsafe) <- v;
                incr nsafe
              end
              else begin
                unsafe.(!nunsafe) <- v;
                incr nunsafe
              end;
              drain ()
            end
          in
          drain ();
          (* Step 3: fence, ordering the bit loads before the traces. *)
          Machine.fence t.mach Fence.Packet_defer;
          if !nunsafe = 0 then begin
            for i = 0 to !nsafe - 1 do
              ignore (Pool.push t.pl p safe.(i))
            done;
            if Packet.is_empty p then begin
              Pool.put t.pl p;
              acquire_input ~tries:(tries - 1) t
            end
            else Some p
          end
          else begin
            match Pool.get_output t.pl with
            | Some d ->
                (* Park the unsafe entries in a deferred packet; keep the
                   safe ones for tracing. *)
                for i = 0 to !nunsafe - 1 do
                  ignore (Pool.push t.pl d unsafe.(i))
                done;
                Pool.put_deferred t.pl d;
                for i = 0 to !nsafe - 1 do
                  ignore (Pool.push t.pl p safe.(i))
                done;
                if Packet.is_empty p then begin
                  Pool.put t.pl p;
                  acquire_input ~tries:(tries - 1) t
                end
                else Some p
            | None ->
                (* No spare packet to defer into: park the whole packet
                   (safe and unsafe entries together) in the Deferred
                   sub-pool — nothing is lost, the safe work just waits
                   for the next recycle — and try another input. *)
                for i = 0 to !nsafe - 1 do
                  ignore (Pool.push t.pl p safe.(i))
                done;
                for i = 0 to !nunsafe - 1 do
                  ignore (Pool.push t.pl p unsafe.(i))
                done;
                Pool.put_deferred t.pl p;
                acquire_input ~tries:(tries - 1) t
          end
        end

(* Ensure the session has an input packet with work; per section 4.3 the
   new packet is obtained before the old one is returned.  When the pool
   has no input work but our own output packet does, the output is
   returned to the pool (fenced) and re-acquired — without this a lone
   tracer would starve on work it generated itself.  Roles are still
   never swapped in place: the packet goes through the pool. *)
let input_with_work t s =
  if s.is_stolen then None
  else
    match s.input with
    | Some p when not (Packet.is_empty p) -> Some p
    | old -> (
        match acquire_input t with
        | Some fresh ->
            (match old with Some p -> Pool.put t.pl p | None -> ());
            s.input <- Some fresh;
            Some fresh
        | None -> (
            match s.output with
            | Some o when not (Packet.is_empty o) -> (
                Pool.put t.pl o;
                s.output <- None;
                (* On real hardware other starved tracers race us for the
                   packet we just returned; give them that chance instead
                   of atomically taking our own work back. *)
                Machine.flush t.mach;
                t.mach.Machine.relinquish ();
                if s.is_stolen then None
                else
                  match acquire_input t with
                  | Some fresh ->
                      (match old with Some p -> Pool.put t.pl p | None -> ());
                      s.input <- Some fresh;
                      Some fresh
                  | None -> None)
            | _ -> None))

let dirty_card_of t addr =
  Card_table.dirty (Heap.cards t.heap) (Arena.card_of_addr addr)

(* Find room to push a marked object; implements output replacement,
   input/output swap and the overflow fallback. *)
let push_to_output t s addr =
  let pushed =
    match s.output with Some o -> Pool.push t.pl o addr | None -> false
  in
  if not pushed then begin
    (* Get the new packet first; only then return the old one. *)
    match Pool.get_output t.pl with
    | Some fresh ->
        (match s.output with Some o -> Pool.put t.pl o | None -> ());
        s.output <- Some fresh;
        ignore (Pool.push t.pl fresh addr)
    | None -> (
        (* Try swapping input and output (the one exception to the
           fixed-role rule, section 4.3). *)
        match s.input with
        | Some i when not (Packet.is_full i) ->
            let o = s.output in
            s.input <- o;
            s.output <- Some i;
            ignore (Pool.push t.pl i addr)
        | _ ->
            (* Overflow: the object stays marked and its card is dirtied
               so card cleaning will retrace it. *)
            t.overflows <- t.overflows + 1;
            dirty_card_of t addr)
  end

let push_obj t s addr =
  if Heap.mark_test_and_set t.heap addr then
    if s.is_stolen then begin
      (* The session lost its packets to a world-stop; fall back to the
         overflow treatment so the object is retraced from its card. *)
      t.overflows <- t.overflows + 1;
      dirty_card_of t addr
    end
    else push_to_output t s addr

let valid_object t addr =
  Arena.in_heap (Heap.arena t.heap) addr
  && Alloc_bits.is_set (Heap.alloc_bits t.heap) addr
  && Arena.header_valid (Heap.arena t.heap) addr

let push_root t s v =
  Machine.charge t.mach t.mach.Machine.cost.Cost.stack_slot;
  if valid_object t v then begin
    (* A stack slot is conservative: it cannot be rewritten, so an area
       object it references must not move. *)
    (match t.compact with
    | Some cp -> Compact.pin cp v
    | None -> ());
    if not (Heap.is_marked t.heap v) then begin
      push_obj t s v;
      true
    end
    else false
  end
  else false

let scan_object t s ~retrace addr =
  let arena = Heap.arena t.heap in
  (* One header load: validity, size and nrefs all decode from it. *)
  let h = Arena.read_slot arena addr in
  if not (Arena.header_ok arena addr h) then begin
    (* Tracing an object whose initialising stores are not yet visible:
       the section 5.2 anomaly.  Real hardware would fault; we count. *)
    t.corrupt <- t.corrupt + 1;
    0
  end
  else begin
    let size = Arena.decode_size h in
    let nrefs = Arena.decode_nrefs h in
    let c = t.mach.Machine.cost in
    Machine.charge t.mach (c.Cost.trace_obj + (nrefs * c.Cost.trace_slot));
    (* Do not read a child's header here: it may be a freshly allocated
       object whose initialising stores are not visible yet.  Push the
       address; its header is examined only when it is popped for
       scanning, after the section 5.2 allocation-bit filter has declared
       it safe.  The compactor test is hoisted out of the loop: most
       cycles run with no compactor armed, and this loop is the hottest
       in the simulator. *)
    (match t.compact with
    | None ->
        for i = 0 to nrefs - 1 do
          let child = Arena.ref_get arena addr i in
          if child <> 0 then
            if Arena.in_heap arena child then push_obj t s child
            else t.corrupt <- t.corrupt + 1
        done
    | Some cp ->
        for i = 0 to nrefs - 1 do
          let child = Arena.ref_get arena addr i in
          if child <> 0 then
            if Arena.in_heap arena child then begin
              if Compact.in_area cp child then
                Compact.record_ref cp ~parent:addr ~idx:i ~child;
              push_obj t s child
            end
            else t.corrupt <- t.corrupt + 1
        done);
    if retrace then t.retraced <- t.retraced + size
    else t.marked <- t.marked + size;
    size
  end

let is_input s p = match s.input with Some q -> q == p | None -> false

(* How many entries below the one being popped the drain loop prefetches:
   the two cache lines from the header of entry [count - prefetch_distance]
   (header and reference slots, [Arena.prefetch]) are on their way into
   the host cache while the entries above it are scanned.  On jbb (2-vCPU
   Xeon VM) 8 beat 4 by 13% with the header line alone; re-measured with
   two lines, 16 is no better than 8. *)
let prefetch_distance = 8

let trace_until t s ~budget =
  let arena = Heap.arena t.heap in
  let traced = ref 0 in
  let continue = ref true in
  while !continue && !traced < budget do
    if s.is_stolen then continue := false
    else
      match input_with_work t s with
      | None -> continue := false
      | Some p ->
          (* Drain [p] while it stays this session's input: after each
             safe point the world may have stopped (stolen), the budget
             run out, the packet emptied, or [push_to_output] swapped it
             to the output role.  Any of those goes back to the outer
             loop, which re-examines the session exactly as per-object
             iteration did. *)
          let draining = ref true in
          while !draining do
            (* Packets know what is traced next, unlike a mark stack's
               top: start the loads of a later entry's header and
               reference slots now, so its scan does not stall on a
               cache miss.  A hint only — the committed entry may be
               stale or junk under Relaxed, hence the [in_heap] guard;
               it reads no simulated state. *)
            let ahead = Packet.count p - prefetch_distance in
            if ahead >= 0 then begin
              let a = Packet.get_sc p ahead in
              if Arena.in_heap arena a then Arena.prefetch arena a
            end;
            let addr = Pool.pop_raw t.pl p in
            if addr = Pool.no_entry then draining := false
            else begin
              traced := !traced + scan_object t s ~retrace:false addr;
              (* Safe point: spend the accumulated cycle debt.  Preemption
                 can only happen here, between whole-object scans. *)
              Machine.flush t.mach;
              draining :=
                !traced < budget && (not s.is_stolen)
                && (not (Packet.is_empty p))
                && is_input s p
            end
          done
  done;
  Machine.flush t.mach;
  !traced

let scan_roots t s roots =
  let n = ref 0 in
  Array.iter
    (fun v ->
      if push_root t s v then incr n;
      Machine.flush t.mach)
    roots;
  Cgc_obs.Obs.instant t.mach.Machine.obs ~arg:!n Cgc_obs.Event.Root_scan;
  !n

let marked_slots t = t.marked
let retraced_slots t = t.retraced
let overflow_events t = t.overflows
let corruptions t = t.corrupt

let reset_cycle t =
  t.marked <- 0;
  t.retraced <- 0
