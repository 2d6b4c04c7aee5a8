module Heap = Cgc_heap.Heap
module Arena = Cgc_heap.Arena
module Alloc_bits = Cgc_heap.Alloc_bits
module Card_table = Cgc_heap.Card_table
module Freelist = Cgc_heap.Freelist

exception Invariant_violation of string

type report = {
  objects : int;
  live_slots : int;
  free_chunks : int;
  free_slots : int;
}

let fail label fmt =
  Printf.ksprintf
    (fun msg -> raise (Invariant_violation (label ^ ": " ^ msg)))
    fmt

let check ~heap ~roots ~globals ~expect_marked ~expect_clean_cards ~label =
  let arena = Heap.arena heap in
  let abits = Heap.alloc_bits heap in
  let nslots = Heap.nslots heap in
  (* One byte per slot: which slots are covered by a reachable object.
     Doubles as the visited set (an object's first slot is its address). *)
  let live = Bytes.make nslots '\000' in
  let objects = ref 0 in
  let live_slots = ref 0 in
  let rec walk from addr =
    (* Bounds first: [live] has one byte per heap slot. *)
    if addr <> 0 && not (Arena.in_heap arena addr) then
      fail label "reference %d (from %d) is outside the heap" addr from;
    if addr <> 0 && Bytes.get live addr <> '\002' then begin
      if Bytes.get live addr = '\001' then
        fail label
          "object %d (from %d) starts inside another reachable object" addr
          from;
      if not (Arena.header_valid_sc arena addr) then
        fail label "reachable object %d (from %d) has an invalid header" addr
          from;
      if not (Alloc_bits.is_set_sc abits addr) then
        fail label
          "reachable object %d (from %d) has no allocation bit (caches are \
           retired at a cycle boundary, so every live object must be \
           published)"
          addr from;
      if expect_marked && not (Heap.is_marked heap addr) then
        fail label
          "reachable object %d (from %d) is unmarked at the end of a \
           collection: it would be swept"
          addr from;
      let size = Arena.size_of_sc arena addr in
      if addr + size > nslots then
        fail label "object %d (size %d) extends past the heap end" addr size;
      for i = addr + 1 to addr + size - 1 do
        if Bytes.get live i <> '\000' then
          fail label "reachable objects overlap at slot %d (inside %d)" i addr;
        Bytes.set live i '\001'
      done;
      Bytes.set live addr '\002';
      incr objects;
      live_slots := !live_slots + size;
      let nrefs = Arena.nrefs_of_sc arena addr in
      for i = 0 to nrefs - 1 do
        walk addr (Arena.ref_get_sc arena addr i)
      done
    end
  in
  (* Mutator stacks are conservative: follow only values the tracer's own
     root filter would have accepted (Tracer.push_root). *)
  List.iteri
    (fun mi root_array ->
      Array.iter
        (fun v ->
          if
            Arena.in_heap arena v
            && Alloc_bits.is_set_sc abits v
            && Arena.header_valid_sc arena v
          then walk (-(mi + 1)) v)
        root_array)
    roots;
  (* The global table is precise: every non-null entry must be an object. *)
  Array.iteri
    (fun i v ->
      if v <> 0 then begin
        if
          not
            (Arena.in_heap arena v
            && Alloc_bits.is_set_sc abits v
            && Arena.header_valid_sc arena v)
        then fail label "global root %d holds %d, not a valid object" i v;
        walk (-1000 - i) v
      end)
    globals;
  (* Free-list disjointness: a chunk overlapping a reachable object means
     the allocator will hand out live memory; a set allocation bit inside
     a chunk means sweep reclaimed a published object it should not have
     (or failed to clear the bit). *)
  let free_chunks = ref 0 in
  let free_slots = ref 0 in
  Freelist.iter (Heap.freelist heap) (fun ~addr ~size ->
      incr free_chunks;
      free_slots := !free_slots + size;
      if addr < 1 || addr + size > nslots then
        fail label "free chunk [%d, %d) is outside the heap" addr (addr + size);
      for i = addr to addr + size - 1 do
        if Bytes.get live i <> '\000' then
          fail label
            "free chunk [%d, %d) overlaps reachable object slot %d" addr
            (addr + size) i;
        if Alloc_bits.is_set_sc abits i then
          fail label
            "slot %d inside free chunk [%d, %d) still has its allocation \
             bit set"
            i addr (addr + size)
      done);
  (* The card table's O(1) dirty counter must agree with a committed-byte
     rescan — a drift here means some write path bypassed the counter
     maintenance and every metering decision based on it is suspect. *)
  let cards = Heap.cards heap in
  let counted = Card_table.dirty_count cards in
  let recounted = Card_table.recount cards in
  if counted <> recounted then
    fail label
      "incremental dirty-card counter (%d) disagrees with a committed \
       rescan (%d)"
      counted recounted;
  if expect_clean_cards then begin
    if counted > 0 then
      fail label
        "%d dirty cards remain after the final stop-the-world cleaning pass"
        counted
  end;
  {
    objects = !objects;
    live_slots = !live_slots;
    free_chunks = !free_chunks;
    free_slots = !free_slots;
  }

(* ------------------------------------------------------------------ *)
(* Nursery invariants (Gen mode)                                       *)

let check_nursery ~heap ~young ~n_lo ~n_hi ~bump ~pins ~caches ~promoted
    ~stage ~label =
  let arena = Heap.arena heap in
  let abits = Heap.alloc_bits heap in
  if bump < n_lo || bump > n_hi then
    fail label "nursery bump pointer %d outside the nursery [%d, %d)" bump n_lo
      n_hi;
  ignore
    (List.fold_left
       (fun prev_end (pa, ps) ->
         if pa < n_lo || pa + ps > n_hi then
           fail label "pinned extent [%d, %d) escapes the nursery [%d, %d)" pa
             (pa + ps) n_lo n_hi;
         if pa < prev_end then
           fail label "pinned extents overlap or are unsorted at %d" pa;
         pa + ps)
       n_lo pins);
  let pin_start a = List.exists (fun (pa, _) -> pa = a) pins in
  List.iter
    (fun (base, cur, limit) ->
      if limit > 0 then begin
        (* A live cache extent is a carved nursery chunk: it must sit
           inside the nursery, below the carve pointer, and its own bump
           cursor must stay inside it. *)
        if base < n_lo || limit > n_hi then
          fail label "allocation cache [%d, %d) escapes the nursery [%d, %d)"
            base limit n_lo n_hi;
        if limit > bump then
          fail label
            "allocation cache [%d, %d) extends past the nursery carve \
             pointer %d"
            base limit bump;
        if cur < base || cur > limit then
          fail label "cache bump pointer %d outside its chunk [%d, %d)" cur
            base limit
      end)
    caches;
  match stage with
  | `Pre ->
      (* Every old->young edge must sit on a dirty young card (parent's
         header card, matching the barrier's convention), or the minor
         about to run would miss the referent and reclaim it live.  All
         caches were published before this check, so committed state is
         the truth. *)
      let addr = ref (Alloc_bits.next_set abits 1) in
      while !addr < n_lo do
        let a = !addr in
        if Arena.header_valid_sc arena a then begin
          let nrefs = Arena.nrefs_of_sc arena a in
          for i = 0 to nrefs - 1 do
            let v = Arena.ref_get_sc arena a i in
            if v >= n_lo && v < n_hi then
              if not (Card_table.is_dirty young (Arena.card_of_addr a)) then
                fail label
                  "old object %d holds young reference %d (slot %d) but its \
                   young card %d is clean"
                  a v i (Arena.card_of_addr a)
          done
        end;
        addr := Alloc_bits.next_set abits (a + 1)
      done
  | `Post ->
      (* The nursery was reset: the only published objects left in it
         are the pinned survivors, each a valid object at a pin start. *)
      let addr = ref (Alloc_bits.next_set abits n_lo) in
      while !addr < n_hi do
        let a = !addr in
        if not (pin_start a) then
          fail label
            "slot %d carries an allocation bit after the nursery reset but \
             is not a pinned survivor"
            a;
        addr := Alloc_bits.next_set abits (a + 1)
      done;
      List.iter
        (fun (pa, _) ->
          if not (Alloc_bits.is_set_sc abits pa) then
            fail label "pinned survivor %d lost its allocation bit" pa;
          if not (Arena.header_valid_sc arena pa) then
            fail label "pinned survivor %d has an invalid header" pa)
        pins;
      (* Every survivor copied out must be a fully-formed old-space
         object whose only remaining young references point at pinned
         survivors (those edges stay registered via re-dirtied cards). *)
      List.iter
        (fun a ->
          if a < 1 || a >= n_lo then
            fail label "promoted object %d is not in the old space" a;
          if not (Alloc_bits.is_set_sc abits a) then
            fail label "promoted object %d has no allocation bit" a;
          if not (Arena.header_valid_sc arena a) then
            fail label "promoted object %d has an invalid header" a;
          let size = Arena.size_of_sc arena a in
          if a + size > n_lo then
            fail label
              "promoted object %d (size %d) straddles the nursery boundary %d"
              a size n_lo;
          let nrefs = Arena.nrefs_of_sc arena a in
          for i = 0 to nrefs - 1 do
            let v = Arena.ref_get_sc arena a i in
            if v >= n_lo && v < n_hi && not (pin_start v) then
              fail label
                "promoted object %d still references nursery slot %d (slot \
                 %d) after evacuation"
                a v i
          done)
        promoted
