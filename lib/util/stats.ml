type t = {
  mutable data : float array;
  mutable n : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable mn : float;
  mutable mx : float;
}

let create () =
  { data = Array.make 16 0.0; n = 0; sum = 0.0; sumsq = 0.0;
    mn = infinity; mx = neg_infinity }

let add t x =
  if t.n = Array.length t.data then begin
    let bigger = Array.make (2 * t.n) 0.0 in
    Array.blit t.data 0 bigger 0 t.n;
    t.data <- bigger
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  t.sumsq <- t.sumsq +. (x *. x);
  if x < t.mn then t.mn <- x;
  if x > t.mx then t.mx <- x

let count t = t.n
let sum t = t.sum
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let stddev t =
  if t.n < 2 then 0.0
  else
    let m = mean t in
    let v = (t.sumsq /. float_of_int t.n) -. (m *. m) in
    if v <= 0.0 then 0.0 else sqrt v

let min t = t.mn
let max t = t.mx

(* The one nearest-rank rule shared by every percentile query in the
   tree (Histogram delegates its edge cases here): the 1-based rank of
   percentile [p] over [n] samples is [ceil (p/100 * n)] clamped to
   [1, n].  So p <= 0 selects the minimum, p >= 100 the maximum, and
   every query lands on an actual sample — no interpolation. *)
let nearest_rank ~n p =
  if n <= 0 then invalid_arg "Stats.nearest_rank: empty sample set";
  let r = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  Stdlib.max 1 (Stdlib.min n r)

let percentile t p =
  if t.n = 0 then 0.0
  else begin
    let sorted = Array.sub t.data 0 t.n in
    (* Float.compare, not polymorphic compare: a NaN sample (e.g. from a
       zero-duration rate division) must order deterministically (first)
       instead of poisoning the sort. *)
    Array.sort Float.compare sorted;
    sorted.(nearest_rank ~n:t.n p - 1)
  end

let samples t = Array.sub t.data 0 t.n

let clear t =
  t.n <- 0;
  t.sum <- 0.0;
  t.sumsq <- 0.0;
  t.mn <- infinity;
  t.mx <- neg_infinity
