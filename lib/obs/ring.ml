(* Events are stored in fixed-size chunks, each one int array holding
   [chunk_events] events as five consecutive ints (ts, dur, tid, code
   index, arg), so [add_fields] is five unboxed stores into the current
   chunk and an armed sink allocates nothing per event once that chunk
   exists.  A chunk is allocated only when the write cursor first
   reaches it: rings are preallocated per simulated thread and most
   threads emit far fewer events than the configured capacity (a pBOB
   cell spreads a few hundred thousand events over hundreds of terminal
   threads), so a ring costs what it holds plus at most one partly
   filled chunk — never a capacity-sized array.

   Slot [s] lives in chunk [s / chunk_events] at offset
   [fields * (s mod chunk_events)].  The last chunk of a ring is cut to
   [cap], so the cursor wraps when it runs off that chunk's end: the
   slot after [cap - 1] is slot 0, by compare and never by division. *)

let chunk_bits = 10
let chunk_events = 1 lsl chunk_bits
let fields = 5
let codes = Array.of_list Event.all_codes

type t = {
  cap : int;
  mutable chunks : int array array; (* the first [nchunks] are allocated *)
  mutable nchunks : int;
  mutable cur : int array; (* the chunk being written *)
  mutable cur_idx : int; (* its index in [chunks]; -1 before the first *)
  mutable off : int; (* next write offset in [cur], in ints *)
  mutable total : int; (* events ever added since the last clear *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  {
    cap = capacity;
    chunks = [||];
    nchunks = 0;
    cur = [||];
    cur_idx = -1;
    off = 0;
    total = 0;
  }

(* Chunks a ring of capacity [cap] can use, without overflowing. *)
let max_chunks cap =
  (cap / chunk_events) + if cap mod chunk_events = 0 then 0 else 1

(* Move the cursor to the next chunk, wrapping to chunk 0 past [cap] and
   allocating the chunk on first use. *)
let next_chunk t =
  let i = t.cur_idx + 1 in
  let i = if i >= max_chunks t.cap then 0 else i in
  if i = t.nchunks then begin
    if i = Array.length t.chunks then begin
      let table = Array.make (min (max_chunks t.cap) (max 4 (2 * i))) [||] in
      Array.blit t.chunks 0 table 0 i;
      t.chunks <- table
    end;
    let len = min chunk_events (t.cap - (i * chunk_events)) in
    t.chunks.(i) <- Array.make (fields * len) 0;
    t.nchunks <- i + 1
  end;
  t.cur <- t.chunks.(i);
  t.cur_idx <- i;
  t.off <- 0

let add_fields t ~ts ~dur ~tid ~code ~arg =
  if t.off >= Array.length t.cur then next_chunk t;
  let c = t.cur and o = t.off in
  c.(o) <- ts;
  c.(o + 1) <- dur;
  c.(o + 2) <- tid;
  c.(o + 3) <- Event.index code;
  c.(o + 4) <- arg;
  t.off <- o + fields;
  t.total <- t.total + 1

let add t (e : Event.t) =
  add_fields t ~ts:e.Event.ts ~dur:e.Event.dur ~tid:e.Event.tid
    ~code:e.Event.code ~arg:e.Event.arg

let length t = if t.total < t.cap then t.total else t.cap
let dropped t = if t.total > t.cap then t.total - t.cap else 0

let iter_slots t f =
  let len = length t in
  (* oldest surviving event: slot 0 until the ring wraps, then the next
     slot to be overwritten *)
  let start =
    if t.total <= t.cap then 0
    else
      let next = (t.cur_idx lsl chunk_bits) + (t.off / fields) in
      if next = t.cap then 0 else next
  in
  for i = 0 to len - 1 do
    let j = start + i in
    f (if j >= t.cap then j - t.cap else j)
  done

let ts t s =
  t.chunks.(s lsr chunk_bits).(fields * (s land (chunk_events - 1)))

let read t s f =
  let c = t.chunks.(s lsr chunk_bits) in
  let o = fields * (s land (chunk_events - 1)) in
  f ~ts:c.(o) ~dur:c.(o + 1) ~tid:c.(o + 2) ~code:codes.(c.(o + 3))
    ~arg:c.(o + 4)

let record ~ts ~dur ~tid ~code ~arg = { Event.ts; dur; tid; code; arg }
let get t s = read t s record
let iter t f = iter_slots t (fun s -> f (get t s))

let to_list t =
  let out = ref [] in
  iter t (fun e -> out := e :: !out);
  List.rev !out

(* The chunks stay allocated and are overwritten as events arrive again. *)
let clear t =
  t.cur <- [||];
  t.cur_idx <- -1;
  t.off <- 0;
  t.total <- 0
