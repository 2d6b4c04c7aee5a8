type 'a t = {
  mutable a : 'a array;
  mutable head : int; (* index of the front element *)
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 16) dummy =
  if capacity <= 0 then invalid_arg "Ringbuf.create: capacity";
  { a = Array.make capacity dummy; head = 0; len = 0; dummy }

let length t = t.len
let is_empty t = t.len = 0

(* Physical index of logical position [i] (0 = front).  [head + i] can
   exceed the array length by at most one wrap, so a compare-and-subtract
   replaces the division a [mod] would cost on every access. *)
let idx t i =
  let j = t.head + i in
  let cap = Array.length t.a in
  if j >= cap then j - cap else j

let grow t =
  let cap = Array.length t.a in
  let bigger = Array.make (2 * cap) t.dummy in
  for i = 0 to t.len - 1 do
    bigger.(i) <- t.a.(idx t i)
  done;
  t.a <- bigger;
  t.head <- 0

let push_back t x =
  if t.len = Array.length t.a then grow t;
  t.a.(idx t t.len) <- x;
  t.len <- t.len + 1

let pop_front t =
  if t.len = 0 then invalid_arg "Ringbuf.pop_front: empty";
  let x = t.a.(t.head) in
  t.a.(t.head) <- t.dummy;
  let h = t.head + 1 in
  t.head <- (if h = Array.length t.a then 0 else h);
  t.len <- t.len - 1;
  if t.len = 0 then t.head <- 0;
  x

let front t =
  if t.len = 0 then invalid_arg "Ringbuf.front: empty";
  t.a.(t.head)

let back t =
  if t.len = 0 then invalid_arg "Ringbuf.back: empty";
  t.a.(idx t (t.len - 1))

let slots_clean t =
  let cap = Array.length t.a in
  let clean = ref true in
  for j = 0 to cap - 1 do
    (* is physical slot j occupied? *)
    let logical =
      let d = j - t.head in
      if d >= 0 then d else d + cap
    in
    if logical >= t.len && t.a.(j) != t.dummy then clean := false
  done;
  !clean
