module Machine = Cgc_smp.Machine
module Weakmem = Cgc_smp.Weakmem
module Bitvec = Cgc_util.Bitvec

type t = {
  mach : Machine.t;
  bits : Bitvec.t;
  wm_base : int;
  sc : bool; (* [Weakmem.mode] never changes, so it is resolved here once *)
}

let create mach ~nslots =
  let wm_base = Weakmem.register mach.Machine.wm nslots in
  { mach; bits = Bitvec.create nslots; wm_base;
    sc = Weakmem.mode mach.Machine.wm = Weakmem.Sc }

let bit b = if b then 1 else 0

let store t i =
  if not t.sc then
    Weakmem.store t.mach.Machine.wm ~cpu:(Machine.cpu t.mach)
      ~now:(Machine.now t.mach) ~key:(t.wm_base + i)
      ~prev:(bit (Bitvec.get t.bits i))

let set t i =
  store t i;
  Bitvec.set t.bits i

let clear t i =
  store t i;
  Bitvec.clear t.bits i

let is_set t i =
  if t.sc then Bitvec.get t.bits i
  else
    Weakmem.read t.mach.Machine.wm ~cpu:(Machine.cpu t.mach)
      ~now:(Machine.now t.mach) ~key:(t.wm_base + i)
      ~current:(bit (Bitvec.get t.bits i))
    <> 0

let is_set_sc t i = Bitvec.get t.bits i

let clear_range t pos len = Bitvec.clear_range t.bits pos len

let prev_set t i = Bitvec.prev_set t.bits i
let next_set t i = Bitvec.next_set t.bits i
let next_set_below t i hi = Bitvec.next_set_below t.bits i hi
