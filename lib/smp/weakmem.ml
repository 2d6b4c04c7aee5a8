module Prng = Cgc_util.Prng
module R = Cgc_util.Ringbuf

type mode = Sc | Relaxed

type entry = {
  key : int;
  cpu : int;
  deadline : int;
  prev : int;
  mutable dead : bool;
}

let dummy_entry = { key = 0; cpu = 0; deadline = 0; prev = 0; dead = true }

(* Binary min-heap of entries keyed by deadline (shared kernel, see
   Cgc_util.Minheap for the slot-hygiene contract). *)
module Heap = Cgc_util.Minheap.Make (struct
  type elt = entry

  let key e = e.deadline
  let dummy = dummy_entry
end)

(* Per-location state: the still-pending stores in coherence (issue)
   order, plus the last deadline handed out for this location so drain
   deadlines stay monotone per key.  A store appends at the back and a
   read finds the newest entry there, both in O(1) without
   allocating. *)
type kq = {
  buf : entry R.t;
  mutable last_deadline : int;
}

(* Per-CPU index of issued entries, so a fence drains exactly the fencing
   processor's stores without the whole-table [Hashtbl.iter] the previous
   implementation performed.  Entries killed early (by a drain deadline
   or a coherence kill) stay in the vector marked dead until the next
   fence or a compaction sweep discards them. *)
type cpuvec = {
  mutable ents : entry array;
  mutable n : int;
  mutable live_hint : int; (* live entries, maintained to decide compaction *)
}

type t = {
  md : mode;
  rng : Prng.t;
  max_delay : int;
  pending : Heap.t;
  by_key : (int, kq) Hashtbl.t; (* live entries, oldest first *)
  mutable by_cpu : cpuvec array; (* indexed by cpu id, grown on demand *)
  mutable next_key : int;
  mutable live : int;
}

let create ?(max_delay = 5000) ~mode ~rng () =
  {
    md = mode;
    rng;
    max_delay;
    pending = Heap.create ();
    by_key = Hashtbl.create 256;
    by_cpu = [||];
    next_key = 0;
    live = 0;
  }

let mode t = t.md

let register t n =
  let base = t.next_key in
  t.next_key <- base + n;
  base

let kq_of t key =
  match Hashtbl.find t.by_key key with
  | kq -> kq
  | exception Not_found ->
      let kq = { buf = R.create ~capacity:8 dummy_entry; last_deadline = min_int } in
      Hashtbl.add t.by_key key kq;
      kq

let cpuvec_of t cpu =
  if cpu < 0 then invalid_arg "Weakmem: negative cpu";
  let n = Array.length t.by_cpu in
  if cpu >= n then begin
    let bigger =
      Array.init (max (cpu + 1) (max 4 (2 * n))) (fun i ->
          if i < n then t.by_cpu.(i)
          else { ents = Array.make 16 dummy_entry; n = 0; live_hint = 0 })
    in
    t.by_cpu <- bigger
  end;
  t.by_cpu.(cpu)

(* Append to the cpu's index; when the vector fills up and is mostly
   dead, compact it in place instead of growing — the index stays
   proportional to the cpu's live pending stores. *)
let cpuvec_add v e =
  if v.n = Array.length v.ents then begin
    if 2 * v.live_hint <= v.n then begin
      let k = ref 0 in
      for i = 0 to v.n - 1 do
        let x = v.ents.(i) in
        if not x.dead then begin
          v.ents.(!k) <- x;
          incr k
        end
      done;
      for i = !k to v.n - 1 do
        v.ents.(i) <- dummy_entry
      done;
      v.n <- !k
    end
    else begin
      let bigger = Array.make (2 * Array.length v.ents) dummy_entry in
      Array.blit v.ents 0 bigger 0 v.n;
      v.ents <- bigger
    end
  end;
  v.ents.(v.n) <- e;
  v.n <- v.n + 1;
  v.live_hint <- v.live_hint + 1

(* Make [e] globally visible.  Per-location coherence: every pending
   store to the same location that is OLDER than [e] (the by_key deques
   are kept in coherence order) becomes visible too — once a newer store
   to a cache line is globally visible, reads can never again return
   values from before it, no matter which processor's buffer the older
   stores sat in. *)
let kill t e =
  if not e.dead then begin
    (match Hashtbl.find_opt t.by_key e.key with
    | None -> ()
    | Some kq ->
        let continue = ref true in
        while !continue && not (R.is_empty kq.buf) do
          let x = R.pop_front kq.buf in
          x.dead <- true;
          t.live <- t.live - 1;
          if x.cpu < Array.length t.by_cpu then begin
            let v = t.by_cpu.(x.cpu) in
            v.live_hint <- v.live_hint - 1
          end;
          if x == e then continue := false
        done);
    if not e.dead then begin
      (* e was not in its key's deque — defensive, mirrors the previous
         implementation's behaviour for an orphaned entry. *)
      e.dead <- true;
      t.live <- t.live - 1
    end
  end

let store t ~cpu ~now ~key ~prev =
  match t.md with
  | Sc -> ()
  | Relaxed ->
      let d = now + 1 + Prng.int t.rng t.max_delay in
      let kq = kq_of t key in
      let d = if kq.last_deadline >= d then kq.last_deadline + 1 else d in
      kq.last_deadline <- d;
      let e = { key; cpu; deadline = d; prev; dead = false } in
      Heap.push t.pending e;
      t.live <- t.live + 1;
      R.push_back kq.buf e;
      cpuvec_add (cpuvec_of t cpu) e

let commit_due t ~now =
  match t.md with
  | Sc -> ()
  | Relaxed ->
      let continue = ref true in
      while !continue do
        if Heap.is_empty t.pending then continue := false
        else begin
          let e = Heap.top t.pending in
          if e.dead then ignore (Heap.pop t.pending)
          else if e.deadline <= now then begin
            ignore (Heap.pop t.pending);
            kill t e
          end
          else continue := false
        end
      done

let read t ~cpu ~now ~key ~current =
  match t.md with
  | Sc -> current
  | Relaxed when t.live = 0 ->
      (* No pending store anywhere: nothing can be masked.  [commit_due]
         could only discard already-dead heap entries, which later calls
         skip anyway, so the whole lookup short-circuits to the backing
         value.  Reads outnumber stores heavily, so this is the common
         case whenever the buffers are drained. *)
      current
  | Relaxed -> (
      commit_due t ~now;
      match Hashtbl.find t.by_key key with
      | exception Not_found -> current
      | kq ->
          if R.is_empty kq.buf then current
          else
            (* A processor always sees its own latest store.  If the
               newest pending entry is ours, the backing value is what we
               wrote.  Otherwise remote readers are still masked by the
               oldest pending store. *)
            let newest = R.back kq.buf in
            if newest.cpu = cpu then current
            else
              let oldest = R.front kq.buf in
              if oldest.cpu = cpu then current else oldest.prev)

let fence t ~cpu ~now:_ =
  match t.md with
  | Sc -> ()
  | Relaxed ->
      if cpu >= 0 && cpu < Array.length t.by_cpu then begin
        let v = t.by_cpu.(cpu) in
        for i = 0 to v.n - 1 do
          let e = v.ents.(i) in
          v.ents.(i) <- dummy_entry;
          if not e.dead then kill t e
        done;
        v.n <- 0;
        v.live_hint <- 0
      end

let fence_all t =
  match t.md with
  | Sc -> ()
  | Relaxed ->
      for cpu = 0 to Array.length t.by_cpu - 1 do
        let v = t.by_cpu.(cpu) in
        for i = 0 to v.n - 1 do
          let e = v.ents.(i) in
          v.ents.(i) <- dummy_entry;
          if not e.dead then kill t e
        done;
        v.n <- 0;
        v.live_hint <- 0
      done

let pending_count t = t.live

let debug_heap_clean t = Heap.slots_clean t.pending
