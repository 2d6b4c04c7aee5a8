(* The SplitMix64 state lives in 8 bytes rather than a mutable int64
   field: reading and writing it through the bytes primitives keeps it
   unboxed, so a draw allocates nothing and stores no pointer. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* Inlined into every draw, so its int64 result is never boxed. *)
let[@inline] next t =
  let z = Int64.add (get_state t 0) golden in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* [Int64.to_int] keeps the low 63 bits and can come out negative;
     clearing the sign bit gives a uniform non-negative int. *)
  let x = Int64.to_int (next t) land max_int in
  x mod bound

let float t x =
  (* 53 high bits give a uniform double in [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  Float.of_int bits /. 9007199254740992.0 *. x

let bool t = Int64.logand (next t) 1L = 1L

let chance t p = float t 1.0 < p

let exponential t mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. Float.log u
