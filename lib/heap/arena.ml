module Machine = Cgc_smp.Machine
module Weakmem = Cgc_smp.Weakmem

type t = {
  mach : Machine.t;
  data : Bytes.t; (* [n] 64-bit words, slot [i] at byte [8 * i] *)
  n : int;
  wm_base : int;
  sc : bool; (* [Weakmem.mode] never changes, so it is resolved here once *)
}

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Every slot holds an OCaml int, so the int64 round trip is exact, and
   inlined, it boxes nothing. *)
let[@inline] get data i = Int64.to_int (get64 data (i lsl 3))
let[@inline] set data i v = set64 data (i lsl 3) (Int64.of_int v)

let slots_per_card = 64

let create mach ~nslots =
  if nslots < slots_per_card then invalid_arg "Arena.create: heap too small";
  let wm_base = Weakmem.register mach.Machine.wm nslots in
  (* Zero-filled: a stale or unpublished read sees zeros, never whatever
     the host allocator left there. *)
  { mach; data = Bytes.make (8 * nslots) '\000'; n = nslots; wm_base;
    sc = Weakmem.mode mach.Machine.wm = Weakmem.Sc }

let card_of_addr addr = addr / slots_per_card

let read_slot t i =
  if t.sc then get t.data i
  else
    Weakmem.read t.mach.Machine.wm ~cpu:(Machine.cpu t.mach)
      ~now:(Machine.now t.mach) ~key:(t.wm_base + i) ~current:(get t.data i)

let write_slot t i v =
  if not t.sc then
    Weakmem.store t.mach.Machine.wm ~cpu:(Machine.cpu t.mach)
      ~now:(Machine.now t.mach) ~key:(t.wm_base + i) ~prev:(get t.data i);
  set t.data i v

let read_slot_sc t i = get t.data i

(* Header layout: size in the low 26 bits, nrefs in the next 26.  Bit 61
   is a tag so that a header is distinguishable from a null slot. *)
let size_bits = 26
let size_mask = (1 lsl size_bits) - 1
let tag = 1 lsl 61
let max_size = size_mask

let encode ~size ~nrefs = tag lor size lor (nrefs lsl size_bits)
let decode_size h = h land size_mask
let decode_nrefs h = (h lsr size_bits) land size_mask

let write_header t addr ~size ~nrefs =
  if size < 1 || size > max_size then invalid_arg "Arena.write_header: size";
  if nrefs < 0 || nrefs > size - 1 then invalid_arg "Arena.write_header: nrefs";
  write_slot t addr (encode ~size ~nrefs)

let clear_fields t addr ~nrefs =
  for i = 1 to nrefs do
    write_slot t (addr + i) 0
  done

let size_of t addr = decode_size (read_slot t addr)
let nrefs_of t addr = decode_nrefs (read_slot t addr)

let header_ok t addr h =
  h land tag <> 0
  &&
  let size = decode_size h and nrefs = decode_nrefs h in
  size >= 1 && addr + size <= t.n && nrefs <= size - 1

let header_valid t addr = header_ok t addr (read_slot t addr)
let header_valid_sc t addr = header_ok t addr (read_slot_sc t addr)

let size_of_sc t addr = decode_size (read_slot_sc t addr)
let nrefs_of_sc t addr = decode_nrefs (read_slot_sc t addr)
let ref_get_sc t addr i = read_slot_sc t (addr + 1 + i)

let ref_get t addr i = read_slot t (addr + 1 + i)
let ref_set_raw t addr i v = write_slot t (addr + 1 + i) v

let in_heap t addr = addr > 0 && addr < t.n

external prefetch_slot : Bytes.t -> (int[@untagged]) -> unit
  = "cgc_arena_prefetch_byte" "cgc_arena_prefetch"
[@@noalloc]

let prefetch t addr = prefetch_slot t.data addr
