(* Bit [i] is bit [i land 7] of byte [i lsr 3], which on a little-endian
   host is bit [i land 63] of the 64-bit word [i lsr 6].  The bits live
   in [Bytes], which the host GC never scans.  Single-bit operations
   touch one byte; the scans load whole words through the unboxed
   64-bit primitives and stay in [int64] arithmetic, because a word read
   into an OCaml int would lose bit 63. *)

type t = { bytes : Bytes.t; len : int }

(* The 64-bit word at a byte offset: a primitive rather than a helper
   function, so no out-of-line copy returns a boxed [int64]. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let () =
  if Sys.big_endian then
    failwith "Bitvec: the word scans need a little-endian host"

let nwords n = (n + 63) lsr 6

let create n =
  if n < 0 then invalid_arg "Bitvec.create";
  { bytes = Bytes.make (8 * nwords n) '\000'; len = n }

let[@inline] byte t k = Char.code (Bytes.unsafe_get t.bytes k)
let[@inline] set_byte t k v = Bytes.unsafe_set t.bytes k (Char.unsafe_chr v)

let get t i = byte t (i lsr 3) land (1 lsl (i land 7)) <> 0

let set t i =
  let k = i lsr 3 in
  set_byte t k (byte t k lor (1 lsl (i land 7)))

let clear t i =
  let k = i lsr 3 in
  set_byte t k (byte t k land lnot (1 lsl (i land 7)))

let test_and_set t i =
  let k = i lsr 3 in
  let mask = 1 lsl (i land 7) in
  let old = byte t k in
  if old land mask <> 0 then false
  else begin
    set_byte t k (old lor mask);
    true
  end

let clear_all t = Bytes.fill t.bytes 0 (Bytes.length t.bytes) '\000'

let[@inline] update_byte t k mask ~set =
  set_byte t k (if set then byte t k lor mask else byte t k land lnot mask)

(* Bits [pos, pos + len) by bytes: a partial first byte, whole bytes,
   a partial last byte. *)
let update_range t pos len ~set =
  if len > 0 then begin
    let last = pos + len - 1 in
    let k0 = pos lsr 3 and k1 = last lsr 3 in
    let lo_mask = 0xFF lsl (pos land 7) land 0xFF
    and hi_mask = 0xFF lsr (7 - (last land 7)) in
    if k0 = k1 then update_byte t k0 (lo_mask land hi_mask) ~set
    else begin
      update_byte t k0 lo_mask ~set;
      Bytes.fill t.bytes (k0 + 1) (k1 - k0 - 1)
        (if set then '\255' else '\000');
      update_byte t k1 hi_mask ~set
    end
  end

let set_range t pos len = update_range t pos len ~set:true
let clear_range t pos len = update_range t pos len ~set:false

(* Index of the lowest set bit of a nonzero word: the isolated bit times
   a de Bruijn constant has a distinct top six bits for each position. *)
let debruijn = 0x03F79D71B4CB0A89L

let ctz_table =
  let t = Array.make 64 0 in
  for k = 0 to 63 do
    let top =
      Int64.to_int
        (Int64.shift_right_logical
           (Int64.mul (Int64.shift_left 1L k) debruijn)
           58)
    in
    t.(top) <- k
  done;
  t

let[@inline] lowest_bit w =
  ctz_table.(Int64.to_int
               (Int64.shift_right_logical
                  (Int64.mul (Int64.logand w (Int64.neg w)) debruijn)
                  58))

(* Index of the highest set bit of a nonzero word: the highest nonzero
   byte, then one table lookup. *)
let fls8 =
  Array.init 256 (fun b ->
      let rec go b i = if b = 0 then i - 1 else go (b lsr 1) (i + 1) in
      go b 0)

let[@inline] fls32 x =
  if x lsr 16 <> 0 then
    if x lsr 24 <> 0 then 24 + fls8.(x lsr 24) else 16 + fls8.(x lsr 16)
  else if x lsr 8 <> 0 then 8 + fls8.(x lsr 8)
  else fls8.(x)

let[@inline] highest_bit w =
  let hi = Int64.to_int (Int64.shift_right_logical w 32) in
  if hi <> 0 then 32 + fls32 hi else fls32 (Int64.to_int w land 0xFFFF_FFFF)

let next_set_below t i hi =
  let hi = if hi > t.len then t.len else hi in
  if i >= hi then hi
  else begin
    let w = ref (i lsr 6) in
    let cur = Int64.shift_right_logical (get64 t.bytes (8 * !w)) (i land 63) in
    let r =
      if cur <> 0L then i + lowest_bit cur
      else begin
        let last = (hi - 1) lsr 6 in
        incr w;
        while !w <= last && get64 t.bytes (8 * !w) = 0L do
          incr w
        done;
        if !w > last then hi
        else (!w lsl 6) + lowest_bit (get64 t.bytes (8 * !w))
      end
    in
    if r > hi then hi else r
  end

let next_set t i = next_set_below t i t.len

let next_clear t i =
  if i >= t.len then t.len
  else begin
    let w = ref (i lsr 6) in
    let cur =
      Int64.shift_right_logical
        (Int64.lognot (get64 t.bytes (8 * !w)))
        (i land 63)
    in
    let r =
      if cur <> 0L then i + lowest_bit cur
      else begin
        incr w;
        let nw = nwords t.len in
        while !w < nw && get64 t.bytes (8 * !w) = -1L do
          incr w
        done;
        if !w >= nw then t.len
        else (!w lsl 6) + lowest_bit (Int64.lognot (get64 t.bytes (8 * !w)))
      end
    in
    if r > t.len then t.len else r
  end

let prev_set t i =
  let i = if i >= t.len then t.len - 1 else i in
  if i < 0 then -1
  else begin
    let w = ref (i lsr 6) in
    (* Keep bits [0, i land 63] of the word. *)
    let cur = Int64.shift_left (get64 t.bytes (8 * !w)) (63 - (i land 63)) in
    if cur <> 0L then i - (63 - highest_bit cur)
    else begin
      decr w;
      while !w >= 0 && get64 t.bytes (8 * !w) = 0L do
        decr w
      done;
      if !w < 0 then -1
      else (!w lsl 6) + highest_bit (get64 t.bytes (8 * !w))
    end
  end

let count t =
  let c = ref 0 in
  for k = 0 to Bytes.length t.bytes - 1 do
    let b = ref (byte t k) in
    while !b <> 0 do
      b := !b land (!b - 1);
      incr c
    done
  done;
  !c

let fold_set_ranges t ~lo ~hi ~init ~f =
  let hi = Int.min hi t.len in
  let acc = ref init in
  let i = ref (if lo >= hi then hi else next_set t lo) in
  while !i < hi do
    let e = Int.min hi (next_clear t (!i + 1)) in
    acc := f !acc !i (e - !i);
    i := if e >= hi then hi else next_set t e
  done;
  !acc
