module Machine = Cgc_smp.Machine
module Weakmem = Cgc_smp.Weakmem
module Cost = Cgc_smp.Cost
module Bitvec = Cgc_util.Bitvec

type t = {
  mach : Machine.t;
  n : int;
  wm_base : int;
  sc : bool; (* [Weakmem.mode] never changes, so it is resolved here once *)
  (* One committed dirty bit per card, plus its population count kept on
     every committed transition: [dirty_count] is O(1) and [snapshot]
     scans words. *)
  dirty_bits : Bitvec.t;
  mutable ndirty : int;
}

let create mach ~ncards =
  let wm_base = Weakmem.register mach.Machine.wm ncards in
  {
    mach;
    n = ncards;
    wm_base;
    sc = Weakmem.mode mach.Machine.wm = Weakmem.Sc;
    dirty_bits = Bitvec.create ncards;
    ndirty = 0;
  }

let ncards t = t.n

let bit b = if b then 1 else 0

let is_dirty t i =
  if t.sc then Bitvec.get t.dirty_bits i
  else
    Weakmem.read t.mach.Machine.wm ~cpu:(Machine.cpu t.mach)
      ~now:(Machine.now t.mach) ~key:(t.wm_base + i)
      ~current:(bit (Bitvec.get t.dirty_bits i))
    <> 0

let write t i now_dirty =
  let was_dirty = Bitvec.get t.dirty_bits i in
  if not t.sc then
    Weakmem.store t.mach.Machine.wm ~cpu:(Machine.cpu t.mach)
      ~now:(Machine.now t.mach) ~key:(t.wm_base + i) ~prev:(bit was_dirty);
  if was_dirty <> now_dirty then
    if now_dirty then begin
      Bitvec.set t.dirty_bits i;
      t.ndirty <- t.ndirty + 1
    end
    else begin
      Bitvec.clear t.dirty_bits i;
      t.ndirty <- t.ndirty - 1
    end

let dirty t i = write t i true
let clear t i = write t i false

let clear_all t =
  Bitvec.clear_all t.dirty_bits;
  t.ndirty <- 0

let dirty_count t = t.ndirty
let recount t = Bitvec.count t.dirty_bits

(* The word-scan fast path is valid exactly when every per-card
   [is_dirty] the card loop would have issued is guaranteed to return
   the committed value: always under Sc, and under Relaxed once the due
   stores are drained and no store remains masked.  Cards must still be
   cleared in descending index order — each Relaxed-mode clear draws
   from the machine's weak-memory PRNG, so the clear order is part of
   the deterministic trace contract. *)
let snapshot t =
  Machine.charge t.mach (t.n * t.mach.Machine.cost.Cost.card_probe);
  let wm = t.mach.Machine.wm in
  let exact =
    t.sc
    || (Weakmem.commit_due wm ~now:(Machine.now t.mach);
        Weakmem.pending_count wm = 0)
  in
  if exact then begin
    let ranges_desc =
      Bitvec.fold_set_ranges t.dirty_bits ~lo:0 ~hi:t.n ~init:[]
        ~f:(fun acc pos len -> (pos, len) :: acc)
    in
    let acc = ref [] in
    List.iter
      (fun (pos, len) ->
        for i = pos + len - 1 downto pos do
          clear t i;
          acc := i :: !acc
        done)
      ranges_desc;
    !acc
  end
  else begin
    (* Masked stores may hide a committed-dirty card (the section 5.3
       race) or expose a stale dirty value, so replay the exact per-card
       loop. *)
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      if is_dirty t i then begin
        clear t i;
        acc := i :: !acc
      end
    done;
    !acc
  end
