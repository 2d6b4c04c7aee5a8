module Machine = Cgc_smp.Machine
module Fence = Cgc_smp.Fence
module Cost = Cgc_smp.Cost
module Bitvec = Cgc_util.Bitvec

type fence_policy = Batched | Naive

type cache = {
  mutable base : int;
  mutable cur : int;
  mutable limit : int;
  mutable pending : int array;
      (* objects whose allocation bits await publication, oldest first;
         a reusable buffer, grown by doubling, so an allocation writes an
         int instead of consing a list cell (and paying [caml_modify]) *)
  mutable npending : int;
}

type t = {
  mach : Machine.t;
  arena : Arena.t;
  free : Freelist.t;
  mark : Bitvec.t;
  abits : Alloc_bits.t;
  card_table : Card_table.t;
  n : int;
  policy : fence_policy;
  mutable cum_alloc : int;
}

let create ?(fence_policy = Batched) mach ~nslots =
  let arena = Arena.create mach ~nslots in
  let free = Freelist.create () in
  (* Slot 0 is reserved (null); the rest starts free. *)
  Freelist.add free ~addr:1 ~size:(nslots - 1);
  {
    mach;
    arena;
    free;
    mark = Bitvec.create nslots;
    abits = Alloc_bits.create mach ~nslots;
    card_table = Card_table.create mach ~ncards:((nslots + Arena.slots_per_card - 1) / Arena.slots_per_card);
    n = nslots;
    policy = fence_policy;
    cum_alloc = 0;
  }

let machine t = t.mach
let fence_policy_of t = t.policy
let arena t = t.arena
let cards t = t.card_table
let alloc_bits t = t.abits
let mark_bits t = t.mark
let freelist t = t.free
let nslots t = t.n

let mark_test_and_set t addr = Bitvec.test_and_set t.mark addr
let is_marked t addr = Bitvec.get t.mark addr
let clear_marks t = Bitvec.clear_all t.mark

let new_cache () =
  { base = 0; cur = 0; limit = 0; pending = [||]; npending = 0 }

let add_pending cache addr =
  let n = cache.npending in
  if n = Array.length cache.pending then begin
    let grown = Array.make (Int.max 16 (2 * n)) 0 in
    Array.blit cache.pending 0 grown 0 n;
    cache.pending <- grown
  end;
  cache.pending.(n) <- addr;
  cache.npending <- n + 1

let publish t cache =
  let n = cache.npending in
  if n > 0 then begin
    (match t.policy with
    | Batched -> Machine.fence t.mach Fence.Alloc_batch
    | Naive -> () (* already fenced per object *));
    (* Newest first: under Relaxed each [Alloc_bits.set] draws a drain
       deadline from the weak-memory PRNG, so the order is observable. *)
    for i = n - 1 downto 0 do
      Alloc_bits.set t.abits cache.pending.(i)
    done;
    cache.npending <- 0
  end

let no_addr = -1

let cache_alloc_addr t cache ~size ~nrefs ~mark_new =
  if cache.cur + size > cache.limit then no_addr
  else begin
    let addr = cache.cur in
    cache.cur <- addr + size;
    let c = t.mach.Machine.cost in
    Machine.charge t.mach (c.Cost.alloc_obj + (size * c.Cost.alloc_slot));
    Arena.write_header t.arena addr ~size ~nrefs;
    Arena.clear_fields t.arena addr ~nrefs;
    if mark_new then Bitvec.set t.mark addr;
    (match t.policy with
    | Batched -> add_pending cache addr
    | Naive ->
        Machine.fence t.mach Fence.Naive_alloc;
        Alloc_bits.set t.abits addr);
    addr
  end

let cache_alloc t cache ~size ~nrefs ~mark_new =
  let a = cache_alloc_addr t cache ~size ~nrefs ~mark_new in
  if a = no_addr then None else Some a

let retire_cache t cache =
  publish t cache;
  (* The unused tail of the cache is abandoned: it carries no allocation
     or mark bits, so the next sweep folds it back into the free list. *)
  cache.base <- 0;
  cache.cur <- 0;
  cache.limit <- 0

let refill_cache t cache ~min ~pref =
  publish t cache;
  Machine.charge t.mach t.mach.Machine.cost.Cost.cache_refill;
  match Freelist.alloc_range t.free ~min ~pref with
  | None ->
      cache.base <- 0;
      cache.cur <- 0;
      cache.limit <- 0;
      false
  | Some (addr, size) ->
      cache.base <- addr;
      cache.cur <- addr;
      cache.limit <- addr + size;
      t.cum_alloc <- t.cum_alloc + size;
      true

let alloc_large t ~size ~nrefs ~mark_new =
  Machine.charge t.mach t.mach.Machine.cost.Cost.cache_refill;
  match Freelist.alloc t.free size with
  | None -> None
  | Some addr ->
      let c = t.mach.Machine.cost in
      Machine.charge t.mach (c.Cost.alloc_obj + (size * c.Cost.alloc_slot));
      t.cum_alloc <- t.cum_alloc + size;
      Arena.write_header t.arena addr ~size ~nrefs;
      Arena.clear_fields t.arena addr ~nrefs;
      if mark_new then Bitvec.set t.mark addr;
      (match t.policy with
      | Batched -> Machine.fence t.mach Fence.Alloc_batch
      | Naive -> Machine.fence t.mach Fence.Naive_alloc);
      Alloc_bits.set t.abits addr;
      Some addr

let free_slots t = Freelist.free_slots t.free
let cumulative_alloc_slots t = t.cum_alloc

(* ------------------------------------------------------------------ *)
(* Nursery support (Gen mode)                                          *)

let reserve_top t ~slots =
  if slots < Arena.slots_per_card || slots >= t.n - Arena.slots_per_card then
    invalid_arg "Heap.reserve_top: nursery size";
  (* Card-align the boundary so a card is never split between the two
     spaces (the old->young remembered set is card-granular). *)
  let n_lo = (t.n - slots) / Arena.slots_per_card * Arena.slots_per_card in
  if t.cum_alloc > 0 then invalid_arg "Heap.reserve_top: heap already in use";
  (* The freelist still holds the pristine [1, n) run; re-carve it so the
     old space owns exactly [1, n_lo) and the nursery is never handed out
     by the free-list allocator. *)
  Freelist.clear t.free;
  Freelist.add t.free ~addr:1 ~size:(n_lo - 1);
  n_lo

let install_cache t cache ~base ~limit =
  publish t cache;
  Machine.charge t.mach t.mach.Machine.cost.Cost.cache_refill;
  cache.base <- base;
  cache.cur <- base;
  cache.limit <- limit;
  t.cum_alloc <- t.cum_alloc + (limit - base)

let cache_extent cache = (cache.base, cache.cur, cache.limit)

let alloc_raw t ~size =
  Machine.charge t.mach t.mach.Machine.cost.Cost.cache_refill;
  match Freelist.alloc t.free size with
  | None -> None
  | Some addr ->
      let c = t.mach.Machine.cost in
      Machine.charge t.mach (c.Cost.alloc_obj + (size * c.Cost.alloc_slot));
      t.cum_alloc <- t.cum_alloc + size;
      Some addr

let object_overlapping t slot =
  match Alloc_bits.prev_set t.abits slot with
  | -1 -> None
  | a ->
      let size = Arena.size_of t.arena a in
      if size >= 1 && a + size > slot then Some a else None

let iter_marked_on_card t card f =
  let lo = card * Arena.slots_per_card in
  let hi = Int.min t.n (lo + Arena.slots_per_card) in
  (* A marked object starting before the card may span into it. *)
  (match Bitvec.prev_set t.mark (lo - 1) with
  | -1 -> ()
  | a ->
      let size = Arena.size_of t.arena a in
      if size >= 1 && a + size > lo then f a);
  let i = ref (Bitvec.next_set_below t.mark lo hi) in
  while !i < hi do
    f !i;
    i := Bitvec.next_set_below t.mark (!i + 1) hi
  done

let iter_objects_on_card t card f =
  let lo = card * Arena.slots_per_card in
  let hi = Int.min t.n (lo + Arena.slots_per_card) in
  (* Object spanning the card start. *)
  let first_inside = Alloc_bits.next_set_below t.abits lo hi in
  (match object_overlapping t lo with
  | Some a when a < lo -> f a
  | _ -> ());
  let i = ref first_inside in
  while !i < hi do
    f !i;
    i := Alloc_bits.next_set_below t.abits (!i + 1) hi
  done
