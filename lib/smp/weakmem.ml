module Prng = Cgc_util.Prng
module Intheap = Cgc_util.Intheap
module Tbl = Hashtbl.Make (Int)

type mode = Sc | Relaxed

(* One masked store: when it drains on its own, who issued it, and the
   value the location held before it. *)
type entry = { deadline : int; cpu : int; prev : int }

(* A location's pending stores, newest first, plus the last deadline
   handed out for it.  [store] bumps each deadline past the previous
   one, so deadlines fall strictly down the list: every drain, natural
   or fenced, keeps a prefix (the newest stores) and drops the rest. *)
type loc = { mutable pending : entry list; mutable last_deadline : int }

type t = {
  md : mode;
  rng : Prng.t;
  max_delay : int;
  due : Intheap.t; (* (deadline, key); stale once that store drained *)
  locs : loc Tbl.t;
  mutable stored : int list array; (* per cpu: keys stored since last fence *)
  mutable next_key : int;
  mutable live : int;
}

let create ?(max_delay = 5000) ~mode ~rng () =
  { md = mode; rng; max_delay; due = Intheap.create (); locs = Tbl.create 256;
    stored = [||]; next_key = 0; live = 0 }

let mode t = t.md

let register t n =
  let base = t.next_key in
  t.next_key <- base + n;
  base

let loc_of t key =
  match Tbl.find t.locs key with
  | l -> l
  | exception Not_found ->
      let l = { pending = []; last_deadline = min_int } in
      Tbl.add t.locs key l;
      l

(* The stores of [l] newer than its newest store that [drains] accepts:
   that store and every older one become visible.  Returns [l] itself
   when nothing drains. *)
let rec keep t drains l =
  match l with
  | [] -> l
  | e :: rest ->
      if drains e then (t.live <- t.live - List.length l; [])
      else
        let rest' = keep t drains rest in
        if rest' == rest then l else e :: rest'

let cut t key drains =
  let l = Tbl.find t.locs key in
  l.pending <- keep t drains l.pending

let store t ~cpu ~now ~key ~prev =
  match t.md with
  | Sc -> ()
  | Relaxed ->
      if cpu < 0 then invalid_arg "Weakmem: negative cpu";
      let d = now + 1 + Prng.int t.rng t.max_delay in
      let l = loc_of t key in
      let d = if l.last_deadline >= d then l.last_deadline + 1 else d in
      l.last_deadline <- d;
      l.pending <- { deadline = d; cpu; prev } :: l.pending;
      Intheap.push t.due ~key:d key;
      t.live <- t.live + 1;
      if cpu >= Array.length t.stored then
        t.stored <- Array.append t.stored (Array.make (cpu + 1) []);
      t.stored.(cpu) <- key :: t.stored.(cpu)

let commit_due t ~now =
  match t.md with
  | Sc -> ()
  | Relaxed ->
      while Intheap.min_key t.due <= now do
        cut t (Intheap.pop t.due) (fun e -> e.deadline <= now)
      done

let rec oldest e = function [] -> e | e :: rest -> oldest e rest

let read t ~cpu ~now ~key ~current =
  match t.md with
  | Sc -> current
  | Relaxed when t.live = 0 ->
      (* Nothing is masked anywhere.  Reads outnumber stores heavily, so
         this is the common case whenever the buffers are drained. *)
      current
  | Relaxed -> (
      commit_due t ~now;
      match Tbl.find t.locs key with
      | exception Not_found -> current
      | { pending = []; _ } -> current
      | { pending = newest :: older; _ } ->
          (* A processor always sees its own latest store: if the newest
             pending store is ours, the backing value is what we wrote.
             Otherwise remote readers are still masked by the oldest. *)
          if newest.cpu = cpu then current
          else
            let o = oldest newest older in
            if o.cpu = cpu then current else o.prev)

let fence t ~cpu ~now:_ =
  match t.md with
  | Sc -> ()
  | Relaxed ->
      if cpu >= 0 && cpu < Array.length t.stored then begin
        List.iter (fun key -> cut t key (fun e -> e.cpu = cpu)) t.stored.(cpu);
        t.stored.(cpu) <- []
      end

let fence_all t =
  match t.md with
  | Sc -> ()
  | Relaxed ->
      Array.iter
        (List.iter (fun key -> (Tbl.find t.locs key).pending <- [])) t.stored;
      Array.fill t.stored 0 (Array.length t.stored) [];
      t.live <- 0

let pending_count t = t.live
