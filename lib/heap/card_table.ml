module Machine = Cgc_smp.Machine
module Weakmem = Cgc_smp.Weakmem
module Cost = Cgc_smp.Cost
module Bitvec = Cgc_util.Bitvec

type t = {
  mach : Machine.t;
  bytes : Bytes.t;
  n : int;
  wm_base : int;
  (* Word-level mirror of the committed dirty bytes, plus its population
     count, both maintained incrementally on every committed transition.
     [dirty_count] is O(1) and [snapshot] scans words instead of bytes;
     the byte array stays authoritative for the weak-memory protocol. *)
  dirty_bits : Bitvec.t;
  mutable ndirty : int;
}

let create mach ~ncards =
  let wm_base = Weakmem.register mach.Machine.wm ncards in
  {
    mach;
    bytes = Bytes.make ncards '\000';
    n = ncards;
    wm_base;
    dirty_bits = Bitvec.create ncards;
    ndirty = 0;
  }

let ncards t = t.n

let get_committed t i = Char.code (Bytes.get t.bytes i)

let read t i =
  let wm = t.mach.Machine.wm in
  match Weakmem.mode wm with
  | Sc -> get_committed t i
  | Relaxed ->
      Weakmem.read wm ~cpu:(Machine.cpu t.mach) ~now:(Machine.now t.mach)
        ~key:(t.wm_base + i) ~current:(get_committed t i)

let write t i now_dirty =
  let wm = t.mach.Machine.wm in
  (match Weakmem.mode wm with
  | Sc -> ()
  | Relaxed ->
      Weakmem.store wm ~cpu:(Machine.cpu t.mach) ~now:(Machine.now t.mach)
        ~key:(t.wm_base + i) ~prev:(get_committed t i));
  let was_dirty = Bytes.get t.bytes i <> '\000' in
  Bytes.set t.bytes i (if now_dirty then '\001' else '\000');
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
let is_dirty t i = read t i <> 0
let clear t i = write t i false

let clear_all t =
  Bytes.fill t.bytes 0 t.n '\000';
  Bitvec.clear_all t.dirty_bits;
  t.ndirty <- 0

let dirty_count t = t.ndirty

let recount t =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if get_committed t i <> 0 then incr c
  done;
  !c

(* The word-scan fast path is valid exactly when every per-card [read]
   the byte loop would have issued is guaranteed to return the committed
   value: always under Sc, and under Relaxed once the due stores are
   drained and no store remains masked.  Cards must still be cleared in
   descending index order — each Relaxed-mode clear draws from the
   machine's weak-memory PRNG, so the clear order is part of the
   deterministic trace contract. *)
let snapshot t =
  Machine.charge t.mach (t.n * t.mach.Machine.cost.Cost.card_probe);
  let wm = t.mach.Machine.wm in
  let exact =
    match Weakmem.mode wm with
    | Sc -> true
    | Relaxed ->
        Weakmem.commit_due wm ~now:(Machine.now t.mach);
        Weakmem.pending_count wm = 0
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
       race) or expose a stale dirty value, so replay the exact byte
       loop. *)
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      if read t i <> 0 then begin
        clear t i;
        acc := i :: !acc
      end
    done;
    !acc
  end
