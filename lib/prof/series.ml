type t = {
  name : string;
  mutable total : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

let create ~name () =
  { name; total = 0; sum = 0.0; mn = infinity; mx = neg_infinity }

let name t = t.name

let add t v =
  t.total <- t.total + 1;
  t.sum <- t.sum +. v;
  if v < t.mn then t.mn <- v;
  if v > t.mx then t.mx <- v

let count t = t.total
let min t = if t.total = 0 then 0.0 else t.mn
let max t = if t.total = 0 then 0.0 else t.mx
let mean t = if t.total = 0 then 0.0 else t.sum /. float_of_int t.total

let clear t =
  t.total <- 0;
  t.sum <- 0.0;
  t.mn <- infinity;
  t.mx <- neg_infinity
