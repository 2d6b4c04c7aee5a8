(* Unit and property tests for the utility substrate: PRNG, exponential
   smoothing, streaming statistics, bit vectors and table rendering. *)

module Prng = Cgc_util.Prng
module Ewma = Cgc_util.Ewma
module Stats = Cgc_util.Stats
module Histogram = Cgc_util.Histogram
module Bitvec = Cgc_util.Bitvec
module Table = Cgc_util.Table

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cf = Alcotest.(float 1e-9)

(* ------------------------------ PRNG ------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  check cb "different seeds diverge" true (Prng.next a <> Prng.next b)

let test_prng_int_nonnegative () =
  (* Regression: Int64.to_int used to wrap to negative ints, producing
     negative indices roughly a quarter of the time. *)
  let r = Prng.create 7 in
  for _ = 1 to 100_000 do
    let x = Prng.int r 40 in
    if x < 0 || x >= 40 then Alcotest.failf "out of range: %d" x
  done

let test_prng_int_covers_range () =
  let r = Prng.create 3 in
  let seen = Array.make 10 false in
  for _ = 1 to 10_000 do
    seen.(Prng.int r 10) <- true
  done;
  Array.iteri (fun i s -> check cb (Printf.sprintf "bucket %d hit" i) true s) seen

let test_prng_float_range () =
  let r = Prng.create 11 in
  for _ = 1 to 10_000 do
    let x = Prng.float r 2.5 in
    if x < 0.0 || x >= 2.5 then Alcotest.failf "float out of range: %f" x
  done

let test_prng_chance_extremes () =
  let r = Prng.create 13 in
  for _ = 1 to 100 do
    check cb "p=1 always true" true (Prng.chance r 1.0)
  done;
  for _ = 1 to 100 do
    check cb "p=0 always false" false (Prng.chance r 0.0)
  done

let test_prng_exponential_mean () =
  let r = Prng.create 17 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.exponential r 10.0 in
    check cb "exponential positive" true (x >= 0.0);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  check cb "mean near 10" true (abs_float (mean -. 10.0) < 0.5)

let test_prng_split_independent () =
  let root = Prng.create 23 in
  let a = Prng.split root in
  let b = Prng.split root in
  check cb "split streams differ" true (Prng.next a <> Prng.next b)

(* Same seed ⇒ the whole derived tree of streams replays identically —
   this is what makes every simulator run reproducible bit-for-bit. *)
let prng_same_seed_same_sequence_test =
  QCheck.Test.make ~name:"prng: same seed, same sequence (incl. splits)"
    ~count:100
    QCheck.(pair small_nat (int_bound 200))
    (fun (seed, n) ->
      let drive rng =
        let a = Prng.split rng and b = Prng.split rng in
        List.init n (fun i ->
            ( Prng.next rng,
              Prng.next a,
              Prng.int b (i + 1),
              Prng.exponential a 3.0 ))
      in
      drive (Prng.create seed) = drive (Prng.create seed))

(* Split-stream independence: however far one split stream is advanced,
   its siblings (and the root) produce exactly the outputs they would
   have produced anyway.  The server leans on this — arrival sampling
   must not perturb the mutators' think-time streams. *)
let prng_split_independent_test =
  QCheck.Test.make ~name:"prng: advancing one split never perturbs a sibling"
    ~count:100
    QCheck.(triple small_nat (int_bound 500) (int_bound 50))
    (fun (seed, burn, n) ->
      let outputs ~burn =
        let root = Prng.create seed in
        let a = Prng.split root in
        let b = Prng.split root in
        for _ = 1 to burn do
          ignore (Prng.next a)
        done;
        let sib = List.init n (fun _ -> Prng.next b) in
        let rt = List.init n (fun _ -> Prng.next root) in
        (sib, rt)
      in
      outputs ~burn = outputs ~burn:0)

(* The generator as it was when its state was a boxed [int64] field: the
   unboxed state must give the same stream, draw for draw. *)
module Prng_ref = struct
  type t = { mutable state : int64 }

  let golden = 0x9E3779B97F4A7C15L
  let create seed = { state = Int64.of_int seed }

  let next t =
    t.state <- Int64.add t.state golden;
    let z = t.state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let split t = { state = next t }
  let int t bound = (Int64.to_int (next t) land max_int) mod bound

  let float t x =
    let bits = Int64.to_int (Int64.shift_right_logical (next t) 11) in
    Float.of_int bits /. 9007199254740992.0 *. x

  let bool t = Int64.logand (next t) 1L = 1L

  let exponential t mean =
    let u = float t 1.0 in
    let u = if u <= 0.0 then 1e-12 else u in
    -.mean *. Float.log u
end

let prng_matches_reference_test =
  QCheck.Test.make ~name:"prng: every draw equals the boxed-state reference"
    ~count:300
    QCheck.(pair int (list (pair (int_bound 5) (int_range 1 1_000_000))))
    (fun (seed, ops) ->
      let a = ref (Prng.create seed) and b = ref (Prng_ref.create seed) in
      List.for_all
        (fun (op, n) ->
          match op with
          | 0 -> Prng.next !a = Prng_ref.next !b
          | 1 -> Prng.int !a n = Prng_ref.int !b n
          | 2 -> Prng.float !a 3.5 = Prng_ref.float !b 3.5
          | 3 -> Prng.bool !a = Prng_ref.bool !b
          | 4 -> Prng.exponential !a 7.0 = Prng_ref.exponential !b 7.0
          | _ ->
              a := Prng.split !a;
              b := Prng_ref.split !b;
              Prng.next !a = Prng_ref.next !b)
        ops)

let draws r n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Prng.int r 1000))
  done

let test_prng_int_allocates_nothing () =
  let r = Prng.create 31 in
  draws r 10;
  (* What reading the counter itself costs, measured the same way. *)
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  draws r 10_000;
  let w2 = Gc.minor_words () in
  check cf "minor words for 10^4 Prng.int" (w1 -. w0) (w2 -. w1)

(* ------------------------------ EWMA ------------------------------ *)

let test_ewma_init () =
  let e = Ewma.create ~init:5.0 () in
  check cf "initial value" 5.0 (Ewma.value e);
  check ci "no samples yet" 0 (Ewma.samples e)

let test_ewma_converges () =
  let e = Ewma.create ~alpha:0.5 ~init:0.0 () in
  for _ = 1 to 60 do
    Ewma.observe e 100.0
  done;
  check cb "converged to 100" true (abs_float (Ewma.value e -. 100.0) < 1e-6);
  check ci "sample count" 60 (Ewma.samples e)

let test_ewma_single_step () =
  let e = Ewma.create ~alpha:0.25 ~init:0.0 () in
  Ewma.observe e 8.0;
  check cf "0.25 * 8" 2.0 (Ewma.value e)

(* Closed form: after observations x1..xn starting from init v0,
   value = (1-a)^n v0 + a * sum (1-a)^(n-i) xi.  The estimate is also
   always bracketed by the extremes of {init} ∪ observations. *)
let ewma_closed_form_test =
  QCheck.Test.make ~name:"ewma: matches closed form and stays bracketed"
    ~count:200
    QCheck.(
      triple (float_range 0.1 1.0) (float_range ~-.50.0 50.0)
        (list_of_size Gen.(1 -- 40) (float_range ~-.100.0 100.0)))
    (fun (alpha, init, xs) ->
      let e = Ewma.create ~alpha ~init () in
      let expect =
        List.fold_left
          (fun acc x ->
            let v = acc +. (alpha *. (x -. acc)) in
            Ewma.observe e x;
            v)
          init xs
      in
      let lo = List.fold_left Float.min init xs
      and hi = List.fold_left Float.max init xs in
      abs_float (Ewma.value e -. expect) < 1e-9
      && Ewma.value e >= lo -. 1e-9
      && Ewma.value e <= hi +. 1e-9
      && Ewma.samples e = List.length xs)

let test_ewma_bad_alpha () =
  Alcotest.check_raises "alpha 0 rejected"
    (Invalid_argument "Ewma.create: alpha in (0,1]") (fun () ->
      ignore (Ewma.create ~alpha:0.0 ~init:0.0 ()))

(* ------------------------------ Stats ------------------------------ *)

let test_stats_empty () =
  let s = Stats.create () in
  check ci "count" 0 (Stats.count s);
  check cf "mean of empty" 0.0 (Stats.mean s);
  check cf "stddev of empty" 0.0 (Stats.stddev s)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check cf "mean" 2.5 (Stats.mean s);
  check cf "min" 1.0 (Stats.min s);
  check cf "max" 4.0 (Stats.max s);
  check cf "sum" 10.0 (Stats.sum s);
  check cb "stddev" true (abs_float (Stats.stddev s -. 1.118033988) < 1e-6)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check cf "p50" 50.0 (Stats.percentile s 50.0);
  check cf "p100" 100.0 (Stats.percentile s 100.0);
  check cf "p1" 1.0 (Stats.percentile s 1.0)

let test_stats_percentile_nan () =
  (* Regression: [Array.sort compare] on floats leaves a NaN-poisoned
     ordering (polymorphic compare says NaN < NaN is false but so is
     NaN >= NaN), which could surface arbitrary samples as percentiles.
     With [Float.compare] NaN sorts first, so real samples keep their
     ranks at the top end. *)
  let s = Stats.create () in
  List.iter (Stats.add s) [ 5.0; 1.0; 3.0; Float.nan; 2.0; 4.0 ];
  check cf "p100 ignores NaN poisoning" 5.0 (Stats.percentile s 100.0);
  check cf "p99 lands on a real sample" 5.0 (Stats.percentile s 99.0);
  check cb "p1 is the NaN (sorts first)" true
    (Float.is_nan (Stats.percentile s 1.0))

let test_stats_nearest_rank () =
  check ci "p0 -> rank 1" 1 (Stats.nearest_rank ~n:10 0.0);
  check ci "p100 -> rank n" 10 (Stats.nearest_rank ~n:10 100.0);
  check ci "p50 over 10" 5 (Stats.nearest_rank ~n:10 50.0);
  check ci "p50 over 11" 6 (Stats.nearest_rank ~n:11 50.0);
  check ci "clamped above" 4 (Stats.nearest_rank ~n:4 250.0);
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Stats.nearest_rank: empty sample set") (fun () ->
      ignore (Stats.nearest_rank ~n:0 50.0))

let test_stats_growth () =
  (* exercise the internal array doubling *)
  let s = Stats.create () in
  for i = 1 to 10_000 do
    Stats.add s (float_of_int i)
  done;
  check ci "count" 10_000 (Stats.count s);
  check cf "mean" 5000.5 (Stats.mean s)

let test_stats_clear () =
  let s = Stats.create () in
  Stats.add s 7.0;
  Stats.clear s;
  check ci "count after clear" 0 (Stats.count s);
  Stats.add s 3.0;
  check cf "reusable after clear" 3.0 (Stats.mean s)

(* One rank rule, two data structures: Histogram.percentile must agree
   with Stats.percentile over the same samples to within one bucket
   width (the histogram's documented resolution), and exactly at the
   extremes where it delegates to the recorded min/max. *)
let hist_vs_stats_percentile_test =
  QCheck.Test.make ~name:"Histogram vs Stats percentile within one bucket"
    ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 200) (int_bound 999_999))
        (list_of_size Gen.(int_range 1 8) (int_bound 100)))
    (fun (samples, ps) ->
      (* Samples span [1e-3, 1e4), the histogram's exact coverage. *)
      let samples = List.map (fun i -> 1e-3 +. (float_of_int i /. 100.0)) samples in
      let ps = List.map float_of_int ps in
      let h = Histogram.create ~lo:1e-3 ~decades:7 ~per_decade:16 () in
      let s = Stats.create () in
      List.iter
        (fun v ->
          Histogram.add h v;
          Stats.add s v)
        samples;
      let width = 10.0 ** (1.0 /. 16.0) in
      List.for_all
        (fun p ->
          let exact = Stats.percentile s p in
          let approx = Histogram.percentile h p in
          (* Within one bucket width either way, and never outside the
             observed range. *)
          approx >= Stats.min s -. 1e-12
          && approx <= Stats.max s +. 1e-12
          && approx <= (exact *. width) +. 1e-12
          && approx >= (exact /. width) -. 1e-12)
        (0.0 :: 100.0 :: ps))

(* ------------------------------ Bitvec ------------------------------ *)

let test_bitvec_set_get () =
  let v = Bitvec.create 200 in
  check cb "initially clear" false (Bitvec.get v 0);
  List.iter (Bitvec.set v) [ 0; 61; 62; 63; 64; 127; 128; 199 ];
  check cb "bit 0" true (Bitvec.get v 0);
  check cb "bit 61" true (Bitvec.get v 61);
  check cb "bit 62" true (Bitvec.get v 62);
  check cb "bit 63 (top bit of word 0)" true (Bitvec.get v 63);
  check cb "bit 64 (word 1)" true (Bitvec.get v 64);
  check cb "bit 127 (top bit of word 1)" true (Bitvec.get v 127);
  check cb "bit 128 (word 2)" true (Bitvec.get v 128);
  check cb "bit 199" true (Bitvec.get v 199);
  check cb "bit 100 clear" false (Bitvec.get v 100);
  check cb "bit 65 clear" false (Bitvec.get v 65);
  (* The scans see the top bit of a word, which an OCaml int cannot
     hold. *)
  check ci "next_set reaches bit 63" 63 (Bitvec.next_set v 63);
  check ci "next_set_below reaches bit 127" 127 (Bitvec.next_set_below v 65 128);
  check ci "prev_set finds bit 63" 63 (Bitvec.prev_set v 63);
  check ci "prev_set finds bit 127" 127 (Bitvec.prev_set v 127);
  Bitvec.clear v 61;
  check cb "cleared" false (Bitvec.get v 61);
  Bitvec.clear v 63;
  check cb "cleared bit 63" false (Bitvec.get v 63);
  check cb "bit 62 kept" true (Bitvec.get v 62);
  check ci "prev_set skips cleared bit 63" 62 (Bitvec.prev_set v 63);
  Bitvec.clear v 64;
  check ci "next_set skips cleared bit 64" 127 (Bitvec.next_set v 64)

let test_bitvec_test_and_set () =
  let v = Bitvec.create 10 in
  check cb "first wins" true (Bitvec.test_and_set v 3);
  check cb "second loses" false (Bitvec.test_and_set v 3);
  check cb "bit is set" true (Bitvec.get v 3)

let test_bitvec_ranges () =
  let v = Bitvec.create 500 in
  Bitvec.set_range v 50 200;
  check ci "count after set_range" 200 (Bitvec.count v);
  check cb "edge low" true (Bitvec.get v 50);
  check cb "edge high" true (Bitvec.get v 249);
  check cb "outside low" false (Bitvec.get v 49);
  check cb "outside high" false (Bitvec.get v 250);
  Bitvec.clear_range v 100 50;
  check ci "count after clear_range" 150 (Bitvec.count v);
  check cb "cleared interior" false (Bitvec.get v 120)

let test_bitvec_next_set () =
  let v = Bitvec.create 300 in
  Bitvec.set v 5;
  Bitvec.set v 130;
  check ci "next_set from 0" 5 (Bitvec.next_set v 0);
  check ci "next_set from 5" 5 (Bitvec.next_set v 5);
  check ci "next_set from 6" 130 (Bitvec.next_set v 6);
  check ci "next_set from 131 = len" 300 (Bitvec.next_set v 131)

let test_bitvec_next_clear () =
  let v = Bitvec.create 200 in
  Bitvec.set_range v 0 150;
  check ci "next_clear" 150 (Bitvec.next_clear v 0);
  check ci "next_clear from 150" 150 (Bitvec.next_clear v 150);
  Bitvec.set_range v 0 200;
  check ci "all set -> len" 200 (Bitvec.next_clear v 0)

let test_bitvec_prev_set () =
  let v = Bitvec.create 300 in
  Bitvec.set v 5;
  Bitvec.set v 130;
  check ci "prev_set from 299" 130 (Bitvec.prev_set v 299);
  check ci "prev_set from 130" 130 (Bitvec.prev_set v 130);
  check ci "prev_set from 129" 5 (Bitvec.prev_set v 129);
  check ci "prev_set from 4 = -1" (-1) (Bitvec.prev_set v 4)

let test_bitvec_fold_set_ranges () =
  let v = Bitvec.create 200 in
  Bitvec.set_range v 10 5;
  Bitvec.set v 61;
  Bitvec.set v 62;
  Bitvec.set v 199;
  let runs =
    List.rev
      (Bitvec.fold_set_ranges v ~lo:0 ~hi:200 ~init:[] ~f:(fun acc pos len ->
           (pos, len) :: acc))
  in
  check cb "maximal runs" true (runs = [ (10, 5); (61, 2); (199, 1) ]);
  (* A window boundary splits the run that straddles it. *)
  let clipped =
    List.rev
      (Bitvec.fold_set_ranges v ~lo:12 ~hi:62 ~init:[] ~f:(fun acc pos len ->
           (pos, len) :: acc))
  in
  check cb "window clips runs" true (clipped = [ (12, 3); (61, 1) ]);
  check cb "empty window" true
    (Bitvec.fold_set_ranges v ~lo:20 ~hi:20 ~init:[] ~f:(fun acc p l ->
         (p, l) :: acc)
    = [])

(* Property tests: the bit vector against a reference bool array.
   Lengths up to 700 cross byte (8) and word (64) boundaries; a range op
   (op 3) fills a whole run, so some vectors hold full words. *)

let bitvec_model_test =
  QCheck.Test.make ~name:"bitvec matches bool-array model" ~count:200
    QCheck.(
      pair (int_bound 700)
        (list (triple (int_bound 3) (int_bound 699) (int_bound 200))))
    (fun (n, ops) ->
      let n = n + 1 in
      let v = Bitvec.create n in
      let model = Array.make n false in
      List.iter
        (fun (op, i, len) ->
          let i = i mod n in
          match op with
          | 0 ->
              Bitvec.set v i;
              model.(i) <- true
          | 1 ->
              Bitvec.clear v i;
              model.(i) <- false
          | 2 ->
              let won = Bitvec.test_and_set v i in
              if won <> not model.(i) then failwith "test_and_set mismatch";
              model.(i) <- true
          | _ ->
              let len = Int.min len (n - i) in
              Bitvec.set_range v i len;
              Array.fill model i len true)
        ops;
      Array.iteri
        (fun i b -> if Bitvec.get v i <> b then failwith "get mismatch")
        model;
      (* next_set agrees with the model *)
      let rec model_next i =
        if i >= n then n else if model.(i) then i else model_next (i + 1)
      in
      let rec model_next_clear i =
        if i >= n then n else if not model.(i) then i else model_next_clear (i + 1)
      in
      let rec model_prev i = if i < 0 || model.(i) then i else model_prev (i - 1) in
      for i = 0 to n - 1 do
        if Bitvec.next_set v i <> model_next i then failwith "next_set mismatch";
        if Bitvec.next_clear v i <> model_next_clear i then
          failwith "next_clear mismatch";
        if Bitvec.prev_set v i <> model_prev i then failwith "prev_set mismatch";
        (* windows ending inside the word, at a word end and past it *)
        List.iter
          (fun hi ->
            let want = Int.min (model_next i) (Int.max i (Int.min hi n)) in
            if Bitvec.next_set_below v i hi <> want then
              failwith "next_set_below mismatch")
          [ i + 1; i + 7; ((i lsr 6) + 1) lsl 6; i + 130; n + 5 ]
      done;
      if Bitvec.prev_set v (-1) <> -1 then failwith "prev_set below 0";
      if Bitvec.prev_set v (n + 3) <> model_prev (n - 1) then
        failwith "prev_set past the end";
      (* count and fold_set_ranges agree with the model: the fold must
         visit every set bit exactly once, in maximal runs. *)
      let model_count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 model in
      if Bitvec.count v <> model_count then failwith "count mismatch";
      let covered = Array.make n false in
      Bitvec.fold_set_ranges v ~lo:0 ~hi:n ~init:() ~f:(fun () pos len ->
          if len <= 0 then failwith "empty run";
          if pos > 0 && model.(pos - 1) then failwith "run not maximal (left)";
          if pos + len < n && model.(pos + len) then
            failwith "run not maximal (right)";
          for i = pos to pos + len - 1 do
            if not model.(i) then failwith "run covers clear bit";
            if covered.(i) then failwith "bit visited twice";
            covered.(i) <- true
          done);
      Array.iteri
        (fun i b -> if b && not covered.(i) then failwith "set bit missed")
        model;
      true)

(* next_set_below against a naive bit loop: lengths that cross the
   64-bit word boundary, windows that start at or past their end, and
   window ends past the vector's length. *)
let bitvec_next_set_below_test =
  QCheck.Test.make ~name:"next_set_below matches a naive bit loop" ~count:500
    QCheck.(
      quad (int_bound 200) (int_bound 5)
        (list (int_bound 199))
        (pair (int_bound 260) (int_bound 260)))
    (fun (n, dense, bits, (i, hi)) ->
      let v = Bitvec.create n in
      if n > 0 then begin
        List.iter (fun b -> Bitvec.set v (b mod n)) bits;
        (* every [dense]-th bit too, so whole words are sometimes full *)
        if dense > 0 then
          for b = 0 to n - 1 do
            if b mod (dense + 1) = 0 then Bitvec.set v b
          done
      end;
      let hi' = min hi n in
      let rec naive j =
        if j >= hi' then hi' else if Bitvec.get v j then j else naive (j + 1)
      in
      Bitvec.next_set_below v i hi = naive i)

let test_bitvec_next_set_below () =
  let v = Bitvec.create 200 in
  List.iter (Bitvec.set v) [ 5; 61; 63; 64; 130 ];
  check ci "first in window" 5 (Bitvec.next_set_below v 0 10);
  check ci "none below hi" 10 (Bitvec.next_set_below v 6 10);
  check ci "bit 61" 61 (Bitvec.next_set_below v 6 62);
  check ci "top bit of word 0" 63 (Bitvec.next_set_below v 62 64);
  check ci "window ends just below bit 63" 63 (Bitvec.next_set_below v 62 63);
  check ci "first bit of word 1" 64 (Bitvec.next_set_below v 64 65);
  check ci "crosses into word 2" 130 (Bitvec.next_set_below v 65 200);
  check ci "window ends at the bit" 100 (Bitvec.next_set_below v 65 100);
  check ci "i >= hi" 7 (Bitvec.next_set_below v 9 7);
  check ci "hi clamped to length" 200 (Bitvec.next_set_below v 131 1_000)

let bitvec_range_test =
  QCheck.Test.make ~name:"set_range/clear_range match model" ~count:200
    QCheck.(quad (int_bound 300) (int_bound 300) (int_bound 300) bool)
    (fun (n, pos, len, do_clear) ->
      let n = n + 10 in
      let pos = pos mod n in
      let len = min len (n - pos) in
      let v = Bitvec.create n in
      if do_clear then Bitvec.set_range v 0 n;
      (if do_clear then Bitvec.clear_range v pos len
       else Bitvec.set_range v pos len);
      let expected_in = not do_clear and expected_out = do_clear in
      let ok = ref true in
      for i = 0 to n - 1 do
        let inside = i >= pos && i < pos + len in
        let want = if inside then expected_in else expected_out in
        if Bitvec.get v i <> want then ok := false
      done;
      !ok)

(* ------------------------------ Table ------------------------------ *)

let test_table_render () =
  let t = Table.create ~title:"T" ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  check cb "has title" true (String.length s > 0 && s.[0] = 'T');
  check cb "rows present" true
    (String.split_on_char '\n' s |> List.length >= 5)

let test_table_arity () =
  let t = Table.create ~title:"T" ~header:[ "a"; "b" ] in
  Alcotest.check_raises "wrong arity" (Invalid_argument "Table.add_row: wrong arity")
    (fun () -> Table.add_row t [ "1" ])

let test_table_formats () =
  check Alcotest.string "fms" "12.3" (Table.fms 12.34);
  check Alcotest.string "fpct" "14.2%" (Table.fpct 0.142);
  check Alcotest.string "f2" "0.04" (Table.f2 0.0449);
  check Alcotest.string "f3" "0.045" (Table.f3 0.0449)

(* ----------------------------- Intheap ----------------------------- *)
(* The scheduler's sleep queue and the weak-memory drain queue.  Exact
   tie order is pinned by test_golden's digests, not here. *)

module Intheap = Cgc_util.Intheap

let test_intheap_empty_pop () =
  let h = Intheap.create () in
  Alcotest.check_raises "pop" (Invalid_argument "Intheap.pop: empty")
    (fun () -> ignore (Intheap.pop h));
  Alcotest.check_raises "top" (Invalid_argument "Intheap.top: empty")
    (fun () -> ignore (Intheap.top h));
  check ci "min_key of empty" max_int (Intheap.min_key h)

let intheap_second_key_test =
  QCheck.Test.make ~name:"intheap second_key matches a sorted model"
    ~count:500
    QCheck.(list (pair bool (int_bound 20)))
    (fun ops ->
      let h = Intheap.create ~capacity:2 () in
      let model = ref [] in
      let keys = Array.of_list (List.map snd ops) in
      List.iteri
        (fun id (push, key) ->
          if push || !model = [] then begin
            Intheap.push h ~key id;
            model := List.merge compare [ key ] !model
          end
          else begin
            let top = Intheap.top h in
            let v = Intheap.pop h in
            if top <> v || keys.(v) <> List.hd !model then
              QCheck.Test.fail_reportf "popped %d (top %d) under key %d, \
                                        model min is %d"
                v top keys.(v) (List.hd !model);
            model := List.tl !model
          end;
          let want_min = match !model with k :: _ -> k | [] -> max_int in
          if Intheap.min_key h <> want_min then
            QCheck.Test.fail_reportf "min_key %d, model %d" (Intheap.min_key h)
              want_min;
          if Intheap.length h <> List.length !model then
            QCheck.Test.fail_report "length mismatch";
          let want = match !model with _ :: k :: _ -> k | _ -> max_int in
          if Intheap.second_key h <> want then
            QCheck.Test.fail_reportf "second_key %d, model %d"
              (Intheap.second_key h) want)
        ops;
      true)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "int nonnegative (regression)" `Quick
            test_prng_int_nonnegative;
          Alcotest.test_case "int covers range" `Quick test_prng_int_covers_range;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          QCheck_alcotest.to_alcotest prng_same_seed_same_sequence_test;
          QCheck_alcotest.to_alcotest prng_split_independent_test;
          QCheck_alcotest.to_alcotest prng_matches_reference_test;
          Alcotest.test_case "int allocates nothing" `Quick
            test_prng_int_allocates_nothing;
        ] );
      ( "ewma",
        [
          Alcotest.test_case "init" `Quick test_ewma_init;
          Alcotest.test_case "converges" `Quick test_ewma_converges;
          Alcotest.test_case "single step" `Quick test_ewma_single_step;
          Alcotest.test_case "bad alpha" `Quick test_ewma_bad_alpha;
          QCheck_alcotest.to_alcotest ewma_closed_form_test;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile NaN (regression)" `Quick
            test_stats_percentile_nan;
          Alcotest.test_case "nearest_rank rule" `Quick test_stats_nearest_rank;
          Alcotest.test_case "growth" `Quick test_stats_growth;
          Alcotest.test_case "clear" `Quick test_stats_clear;
          QCheck_alcotest.to_alcotest hist_vs_stats_percentile_test;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "set/get" `Quick test_bitvec_set_get;
          Alcotest.test_case "test_and_set" `Quick test_bitvec_test_and_set;
          Alcotest.test_case "ranges" `Quick test_bitvec_ranges;
          Alcotest.test_case "next_set" `Quick test_bitvec_next_set;
          Alcotest.test_case "next_set_below" `Quick test_bitvec_next_set_below;
          Alcotest.test_case "next_clear" `Quick test_bitvec_next_clear;
          Alcotest.test_case "prev_set" `Quick test_bitvec_prev_set;
          Alcotest.test_case "fold_set_ranges" `Quick
            test_bitvec_fold_set_ranges;
          QCheck_alcotest.to_alcotest bitvec_model_test;
          QCheck_alcotest.to_alcotest bitvec_range_test;
          QCheck_alcotest.to_alcotest bitvec_next_set_below_test;
        ] );
      ( "intheap",
        [
          Alcotest.test_case "empty pop raises" `Quick test_intheap_empty_pop;
          QCheck_alcotest.to_alcotest intheap_second_key_test;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
    ]
