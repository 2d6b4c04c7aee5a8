module Machine = Cgc_smp.Machine
module Weakmem = Cgc_smp.Weakmem

type t = {
  mach : Machine.t;
  data : int array;
  mutable n : int;
  wm_base : int;
  sc : bool; (* [Weakmem.mode] never changes, so it is resolved here once *)
}

let make mach ~capacity =
  let wm_base = Weakmem.register mach.Machine.wm capacity in
  { mach; data = Array.make capacity 0; n = 0; wm_base;
    sc = Weakmem.mode mach.Machine.wm = Weakmem.Sc }

let count t = t.n
let is_empty t = t.n = 0
let is_full t = t.n = Array.length t.data

let read t i =
  if t.sc then t.data.(i)
  else
    Weakmem.read t.mach.Machine.wm ~cpu:(Machine.cpu t.mach)
      ~now:(Machine.now t.mach) ~key:(t.wm_base + i) ~current:t.data.(i)

let write t i v =
  if not t.sc then
    Weakmem.store t.mach.Machine.wm ~cpu:(Machine.cpu t.mach)
      ~now:(Machine.now t.mach) ~key:(t.wm_base + i) ~prev:t.data.(i);
  t.data.(i) <- v

let push t v =
  if is_full t then false
  else begin
    write t t.n v;
    t.n <- t.n + 1;
    true
  end

let no_entry = min_int

let pop_raw t =
  if t.n = 0 then no_entry
  else begin
    t.n <- t.n - 1;
    read t t.n
  end

let pop t =
  if t.n = 0 then None
  else begin
    t.n <- t.n - 1;
    Some (read t t.n)
  end

let get_sc t i = t.data.(i)

let reverse t =
  if not t.sc then invalid_arg "Packet.reverse: needs SC memory";
  let d = t.data in
  let i = ref 0 and j = ref (t.n - 1) in
  while !i < !j do
    let x = d.(!i) in
    d.(!i) <- d.(!j);
    d.(!j) <- x;
    incr i;
    decr j
  done

let iter t f =
  for i = 0 to t.n - 1 do
    f (read t i)
  done
