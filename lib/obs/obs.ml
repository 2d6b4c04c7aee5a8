module Clock = Cgc_util.Clock

(* The sorted handles of the sink's events as of [at] emits; a handle's
   high bits index [ring_at], its low [slot_bits] bits are a slot. *)
type sorted = {
  at : int;
  ring_at : Ring.t array;
  slot_bits : int;
  handles : int array;
}

type armed = {
  cap : int;
  clock : Clock.t;
  rings : (int, Ring.t) Hashtbl.t;
  mutable count : int;
  mutable last : (int * Ring.t) option;
      (* cache of the last (tid, ring) pair: consecutive events
         overwhelmingly come from the same thread, so the hot path skips
         the per-event Hashtbl lookup *)
  mutable sorted : sorted option;
      (* the last sort; stale once [count] has moved past its [at] *)
}

type t = Null | On of armed

let null = Null

let create ?(ring_capacity = 65536) clock =
  On
    {
      cap = ring_capacity;
      clock;
      rings = Hashtbl.create 16;
      count = 0;
      last = None;
      sorted = None;
    }

let enabled = function Null -> false | On _ -> true

let ring_of a tid =
  match a.last with
  | Some (t0, r) when t0 = tid -> r
  | _ ->
      let r =
        match Hashtbl.find_opt a.rings tid with
        | Some r -> r
        | None ->
            let r = Ring.create ~capacity:a.cap in
            Hashtbl.add a.rings tid r;
            r
      in
      a.last <- Some (tid, r);
      r

(* All emission funnels through here: one ring-cache probe plus an
   allocation-free field append. *)
let emit a ~ts ~dur ~tid ~code ~arg =
  a.count <- a.count + 1;
  Ring.add_fields (ring_of a tid) ~ts ~dur ~tid ~code ~arg

let instant t ?(arg = 0) code =
  match t with
  | Null -> ()
  | On a ->
      emit a ~ts:(Clock.now a.clock) ~dur:(-1) ~tid:(Clock.tid a.clock) ~code
        ~arg

let span t ?(arg = 0) ~start code =
  match t with
  | Null -> ()
  | On a ->
      let now = Clock.now a.clock in
      emit a ~ts:start ~dur:(Int.max 0 (now - start)) ~tid:(Clock.tid a.clock)
        ~code ~arg

let span_at t ?(arg = 0) ~ts ~dur code =
  match t with
  | Null -> ()
  | On a -> emit a ~ts ~dur:(Int.max 0 dur) ~tid:(Clock.tid a.clock) ~code ~arg

let instant_host t ?(arg = 0) ~tid ~ts code =
  match t with
  | Null -> ()
  | On a -> emit a ~ts ~dur:(-1) ~tid ~code ~arg

let emitted = function Null -> 0 | On a -> a.count

let dropped = function
  | Null -> 0
  | On a -> Hashtbl.fold (fun _ r acc -> acc + Ring.dropped r) a.rings 0

let dropped_by_thread = function
  | Null -> []
  | On a ->
      Hashtbl.fold
        (fun tid r acc ->
          if Ring.dropped r > 0 then (tid, Ring.dropped r) :: acc else acc)
        a.rings []
      |> List.sort compare

let radix_bits = 11

(* Stable LSD radix sort of non-negative [keys] on bits [lo, hi): three
   passes of 11 bits for a simulated run's timestamps, against the
   n log n closure comparisons of a merge sort.  Returns [keys] or its
   one scratch array, whichever holds the result. *)
let radix_sort keys ~lo ~hi =
  let n = Array.length keys in
  let buckets = 1 lsl radix_bits in
  let mask = buckets - 1 in
  let count = Array.make buckets 0 in
  let src = ref keys and dst = ref (Array.make n 0) in
  let shift = ref lo in
  while !shift < hi do
    let s = !src and d = !dst and sh = !shift in
    Array.fill count 0 buckets 0;
    for i = 0 to n - 1 do
      let b = (s.(i) lsr sh) land mask in
      count.(b) <- count.(b) + 1
    done;
    let sum = ref 0 in
    for b = 0 to buckets - 1 do
      let c = count.(b) in
      count.(b) <- !sum;
      sum := !sum + c
    done;
    for i = 0 to n - 1 do
      let k = s.(i) in
      let b = (k lsr sh) land mask in
      d.(count.(b)) <- k;
      count.(b) <- count.(b) + 1
    done;
    src := d;
    dst := s;
    shift := sh + radix_bits
  done;
  !src

(* Bits needed to write [n >= 0]. *)
let bit_width n =
  let b = ref 0 in
  while n lsr !b > 0 do incr b done;
  !b

(* The one sort behind every merged view: a handle per surviving event,
   [ring lsl slot_bits lor slot], ordered by timestamp.  Handles are
   generated ring by ring in thread-id order, oldest first, and the sort
   is stable, so equal timestamps keep that (tid, emission order) order
   and the listing is reproducible.  The sort key is [ts lsl hbits lor
   handle], radix-sorted on its timestamp bits only, which keeps it
   stable; no event is copied.  The result is cached on the sink until
   the next emit or clear. *)
let sort a =
  let rings =
    Hashtbl.fold (fun k _ acc -> k :: acc) a.rings []
    |> List.sort compare
    |> List.map (Hashtbl.find a.rings)
    |> Array.of_list
  in
  let n = Array.fold_left (fun acc r -> acc + Ring.length r) 0 rings in
  let slot_bits =
    bit_width (Array.fold_left (fun m r -> Int.max m (Ring.length r)) 0 rings)
  in
  let hbits = slot_bits + bit_width (Array.length rings) in
  let keys = Array.make n 0 in
  let min_ts = ref 0 and max_ts = ref 0 in
  let i = ref 0 in
  Array.iteri
    (fun k r ->
      let base = k lsl slot_bits in
      Ring.iter_slots r (fun s ->
          let ts = Ring.ts r s in
          if ts < !min_ts then min_ts := ts;
          if ts > !max_ts then max_ts := ts;
          (* the low [hbits] bits hold the handle even if [ts] is too
             wide to fit above them *)
          keys.(!i) <- (ts lsl hbits) lor base lor s;
          incr i))
    rings;
  let ts_bits = bit_width !max_ts in
  let fits = !min_ts >= 0 && hbits + ts_bits <= 62 in
  let handles =
    if fits then radix_sort keys ~lo:hbits ~hi:(hbits + ts_bits) else keys
  in
  let mask = (1 lsl hbits) - 1 in
  for j = 0 to n - 1 do
    handles.(j) <- handles.(j) land mask
  done;
  let slot_mask = (1 lsl slot_bits) - 1 in
  if not fits then begin
    (* Timestamps too wide to pack (cannot happen for simulated clocks,
       which start at zero): sort the handles by looking [ts] up. *)
    let ts h = Ring.ts rings.(h lsr slot_bits) (h land slot_mask) in
    Array.stable_sort (fun h h' -> compare (ts h : int) (ts h')) handles
  end;
  { at = a.count; ring_at = rings; slot_bits; handles }

let sorted a =
  match a.sorted with
  | Some s when s.at = a.count -> s
  | _ ->
      let s = sort a in
      a.sorted <- Some s;
      s

let ring s h = s.ring_at.(h lsr s.slot_bits)
let slot s h = h land ((1 lsl s.slot_bits) - 1)

let iter_sorted t f =
  match t with
  | Null -> ()
  | On a ->
      let s = sorted a in
      Array.iter (fun h -> Ring.read (ring s h) (slot s h) f) s.handles

(* Built as an array because the analysis passes are length-heavy: one
   flat array of a few hundred thousand records scans several times
   faster than a cons-cell chain. *)
let events_array = function
  | Null -> [||]
  | On a ->
      let s = sorted a in
      Array.map (fun h -> Ring.get (ring s h) (slot s h)) s.handles

let events t = Array.to_list (events_array t)

let clear = function
  | Null -> ()
  | On a ->
      Hashtbl.iter (fun _ r -> Ring.clear r) a.rings;
      a.count <- 0;
      a.sorted <- None
