module Clock = Cgc_util.Clock

type armed = {
  cap : int;
  clock : Clock.t;
  rings : (int, Ring.t) Hashtbl.t;
  mutable count : int;
  mutable last : (int * Ring.t) option;
      (* cache of the last (tid, ring) pair: consecutive events
         overwhelmingly come from the same thread, so the hot path skips
         the per-event Hashtbl lookup *)
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
      emit a ~ts:start ~dur:(max 0 (now - start)) ~tid:(Clock.tid a.clock)
        ~code ~arg

let span_at t ?(arg = 0) ~ts ~dur code =
  match t with
  | Null -> ()
  | On a -> emit a ~ts ~dur:(max 0 dur) ~tid:(Clock.tid a.clock) ~code ~arg

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

type merged = {
  ts : int array;
  dur : int array;
  tid : int array;
  code : Event.code array;
  arg : int array;
  order : int array;
}

let radix_bits = 11

(* Stable LSD radix sort of non-negative [keys] on bits [lo, hi): three
   passes of 11 bits for a simulated run's timestamps, against the
   n log n closure comparisons of a merge sort. *)
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

(* The one sort behind every merged view: the surviving events of every
   ring, ordered by timestamp.  Stable: equal timestamps keep the (tid,
   emission order) order the concatenation establishes, so the listing
   is reproducible.  Each ring's scalars are gathered with segment
   blits, then [ts * 2^b + index] keys — already in index order — are
   radix-sorted on their timestamp bits only, which keeps them stable.
   No per-event record is built: the exporter writes straight from the
   columns. *)
let merged t =
  let rings =
    match t with
    | Null -> []
    | On a ->
        Hashtbl.fold (fun k _ acc -> k :: acc) a.rings []
        |> List.sort compare
        |> List.map (Hashtbl.find a.rings)
  in
  let n = List.fold_left (fun acc r -> acc + Ring.length r) 0 rings in
  let ts = Array.make n 0
  and dur = Array.make n 0
  and tid = Array.make n 0
  and arg = Array.make n 0
  and code = Array.make n Event.Cycle_start in
  ignore
    (List.fold_left
       (fun pos r -> Ring.blit_fields r ~ts ~dur ~tid ~arg ~code ~pos)
       0 rings);
  let bits =
    let b = ref 1 in
    while 1 lsl !b < n do incr b done;
    !b
  in
  let max_ts = Array.fold_left max 0 ts in
  let order =
    if max_ts < 1 lsl (61 - bits) && Array.fold_left min 0 ts >= 0 then begin
      let ts_bits =
        let b = ref 0 in
        while max_ts lsr !b > 0 do incr b done;
        !b
      in
      let key =
        radix_sort
          (Array.init n (fun i -> (ts.(i) lsl bits) lor i))
          ~lo:bits ~hi:(bits + ts_bits)
      in
      let mask = (1 lsl bits) - 1 in
      for j = 0 to n - 1 do
        key.(j) <- key.(j) land mask
      done;
      key
    end
    else begin
      (* Timestamps too large to pack (cannot happen for simulated
         clocks, which start at zero): sort the indices directly. *)
      let idx = Array.init n Fun.id in
      Array.stable_sort (fun i j -> compare (ts.(i) : int) ts.(j)) idx;
      idx
    end
  in
  { ts; dur; tid; code; arg; order }

(* Built as an array because the analysis passes are length-heavy: one
   flat array of a few hundred thousand records scans several times
   faster than a cons-cell chain. *)
let events_array t =
  let m = merged t in
  Array.map
    (fun i ->
      {
        Event.ts = m.ts.(i);
        dur = m.dur.(i);
        tid = m.tid.(i);
        code = m.code.(i);
        arg = m.arg.(i);
      })
    m.order

let events t = Array.to_list (events_array t)

let clear = function
  | Null -> ()
  | On a ->
      Hashtbl.iter (fun _ r -> Ring.clear r) a.rings;
      a.count <- 0
