type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable n : int;
}

let create ?(capacity = 32) () =
  if capacity <= 0 then invalid_arg "Intheap.create: capacity";
  { keys = Array.make capacity 0; vals = Array.make capacity 0; n = 0 }

let length h = h.n
let is_empty h = h.n = 0

let grow h =
  let cap = 2 * Array.length h.keys in
  let keys = Array.make cap 0 and vals = Array.make cap 0 in
  Array.blit h.keys 0 keys 0 h.n;
  Array.blit h.vals 0 vals 0 h.n;
  h.keys <- keys;
  h.vals <- vals

let swap h i j =
  let k = h.keys.(i) and v = h.vals.(i) in
  h.keys.(i) <- h.keys.(j);
  h.vals.(i) <- h.vals.(j);
  h.keys.(j) <- k;
  h.vals.(j) <- v

(* The sift loops compare with strict [>] going up and strict [<] going
   down, left child before right; that order decides how equal keys pop,
   and the golden digests pin it. *)
let push h ~key v =
  if h.n = Array.length h.keys then grow h;
  let i = ref h.n in
  h.n <- h.n + 1;
  h.keys.(!i) <- key;
  h.vals.(!i) <- v;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if h.keys.(p) > h.keys.(!i) then begin
      swap h p !i;
      i := p
    end
    else continue := false
  done

let min_key h = if h.n = 0 then max_int else h.keys.(0)

(* The second-smallest key is at a child of the root. *)
let second_key h =
  if h.n < 2 then max_int
  else if h.n = 2 then h.keys.(1)
  else Int.min h.keys.(1) h.keys.(2)

let top h =
  if h.n = 0 then invalid_arg "Intheap.top: empty";
  h.vals.(0)

let pop h =
  if h.n = 0 then invalid_arg "Intheap.pop: empty";
  let top = h.vals.(0) in
  h.n <- h.n - 1;
  h.keys.(0) <- h.keys.(h.n);
  h.vals.(0) <- h.vals.(h.n);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let s = ref !i in
    if l < h.n && h.keys.(l) < h.keys.(!s) then s := l;
    if r < h.n && h.keys.(r) < h.keys.(!s) then s := r;
    if !s <> !i then begin
      swap h !s !i;
      i := !s
    end
    else continue := false
  done;
  top

let exists h f =
  let rec go i = i < h.n && (f h.vals.(i) || go (i + 1)) in
  go 0
