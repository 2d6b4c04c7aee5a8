(* Bits are packed 62 per word so that all indices stay inside OCaml's
   immediate-int range on 64-bit platforms. *)

let bits_per_word = 62

type t = { words : int array; len : int }

let create n =
  if n < 0 then invalid_arg "Bitvec.create";
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word + 1) 0; len = n }

let get t i = t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let set t i =
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let clear t i =
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let test_and_set t i =
  let w = i / bits_per_word and b = i mod bits_per_word in
  let mask = 1 lsl b in
  let old = t.words.(w) in
  if old land mask <> 0 then false
  else begin
    t.words.(w) <- old lor mask;
    true
  end

let clear_all t = Array.fill t.words 0 (Array.length t.words) 0

let full_word = (1 lsl bits_per_word) - 1

let set_range t pos len =
  if len > 0 then begin
    let last = pos + len - 1 in
    let w0 = pos / bits_per_word and w1 = last / bits_per_word in
    if w0 = w1 then begin
      let mask = (full_word lsr (bits_per_word - len)) lsl (pos mod bits_per_word) in
      t.words.(w0) <- t.words.(w0) lor mask
    end
    else begin
      t.words.(w0) <- t.words.(w0) lor (full_word lsl (pos mod bits_per_word) land full_word);
      for w = w0 + 1 to w1 - 1 do
        t.words.(w) <- full_word
      done;
      let hi_bits = (last mod bits_per_word) + 1 in
      t.words.(w1) <- t.words.(w1) lor (full_word lsr (bits_per_word - hi_bits))
    end
  end

let clear_range t pos len =
  if len > 0 then begin
    let last = pos + len - 1 in
    let w0 = pos / bits_per_word and w1 = last / bits_per_word in
    if w0 = w1 then begin
      let mask = (full_word lsr (bits_per_word - len)) lsl (pos mod bits_per_word) in
      t.words.(w0) <- t.words.(w0) land lnot mask
    end
    else begin
      t.words.(w0) <- t.words.(w0) land lnot (full_word lsl (pos mod bits_per_word) land full_word);
      for w = w0 + 1 to w1 - 1 do
        t.words.(w) <- 0
      done;
      let hi_bits = (last mod bits_per_word) + 1 in
      t.words.(w1) <- t.words.(w1) land lnot (full_word lsr (bits_per_word - hi_bits))
    end
  end

(* 256-entry byte kernels: one table lookup replaces a bit-at-a-time
   loop, so the scan primitives below touch each word a constant number
   of times instead of once per bit. *)

let pop8 =
  Array.init 256 (fun b ->
      let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
      go b 0)

let ctz8 =
  Array.init 256 (fun b ->
      if b = 0 then 8
      else
        let rec go b i = if b land 1 <> 0 then i else go (b lsr 1) (i + 1) in
        go b 0)

(* Population count of one (62-bit) word. *)
let popcount w =
  pop8.(w land 0xFF)
  + pop8.((w lsr 8) land 0xFF)
  + pop8.((w lsr 16) land 0xFF)
  + pop8.((w lsr 24) land 0xFF)
  + pop8.((w lsr 32) land 0xFF)
  + pop8.((w lsr 40) land 0xFF)
  + pop8.((w lsr 48) land 0xFF)
  + pop8.((w lsr 56) land 0xFF)

(* Index of the lowest set bit of a nonzero word. *)
let lowest_bit w =
  let rec skip w i =
    if w land 0xFF = 0 then skip (w lsr 8) (i + 8)
    else i + ctz8.(w land 0xFF)
  in
  skip w 0

(* Index of the highest set bit of a nonzero word (-1 on zero bytes). *)
let fls8 =
  Array.init 256 (fun b ->
      let rec go b i = if b = 0 then i - 1 else go (b lsr 1) (i + 1) in
      go b 0)

let highest_bit w =
  let rec skip w i =
    if w lsr 8 = 0 then i + fls8.(w land 0xFF) else skip (w lsr 8) (i + 8)
  in
  skip w 0

let next_set t i =
  if i >= t.len then t.len
  else begin
    let w = ref (i / bits_per_word) in
    let cur = t.words.(!w) lsr (i mod bits_per_word) in
    let r =
      if cur <> 0 then i + lowest_bit cur
      else begin
        incr w;
        let nwords = Array.length t.words in
        while !w < nwords && t.words.(!w) = 0 do
          incr w
        done;
        if !w >= nwords then t.len
        else (!w * bits_per_word) + lowest_bit t.words.(!w)
      end
    in
    if r > t.len then t.len else r
  end

let next_set_below t i hi =
  let hi = if hi > t.len then t.len else hi in
  if i >= hi then hi
  else begin
    let w = ref (i / bits_per_word) in
    let cur = t.words.(!w) lsr (i mod bits_per_word) in
    let r =
      if cur <> 0 then i + lowest_bit cur
      else begin
        let last = (hi - 1) / bits_per_word in
        incr w;
        while !w <= last && t.words.(!w) = 0 do
          incr w
        done;
        if !w > last then hi else (!w * bits_per_word) + lowest_bit t.words.(!w)
      end
    in
    if r > hi then hi else r
  end

let next_clear t i =
  if i >= t.len then t.len
  else begin
    let w = ref (i / bits_per_word) in
    let cur = lnot t.words.(!w) land full_word in
    let cur = cur lsr (i mod bits_per_word) in
    let r =
      if cur <> 0 then i + lowest_bit cur
      else begin
        incr w;
        let nwords = Array.length t.words in
        while !w < nwords && t.words.(!w) = full_word do
          incr w
        done;
        if !w >= nwords then t.len
        else (!w * bits_per_word) + lowest_bit (lnot t.words.(!w) land full_word)
      end
    in
    if r > t.len then t.len else r
  end

let prev_set t i =
  if i < 0 then -1
  else begin
    let i = if i >= t.len then t.len - 1 else i in
    let w = ref (i / bits_per_word) in
    let nbits = (i mod bits_per_word) + 1 in
    let cur = t.words.(!w) land (full_word lsr (bits_per_word - nbits)) in
    if cur <> 0 then (!w * bits_per_word) + highest_bit cur
    else begin
      decr w;
      while !w >= 0 && t.words.(!w) = 0 do
        decr w
      done;
      if !w < 0 then -1 else (!w * bits_per_word) + highest_bit t.words.(!w)
    end
  end

let count t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

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
