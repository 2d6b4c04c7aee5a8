(* Per-request causal spans with an exact blame decomposition.

   Every completed request carries one [t]: the routing decision the
   fleet front end made for it (shard, epoch, retries, hedge outcome),
   its shard-side enqueue/start/finish stamps, and a blame record that
   splits the end-to-end latency into integer-cycle components.  The
   split is exact by construction — [blame_total] equals the reported
   e2e latency for every request, which the report validator and the
   QCheck conservation property both re-check. *)

module Prng = Cgc_util.Prng

type route = {
  rid : int;
  first : int;
  shard : int;
  epoch : int;
  attempts : int;
  hedged : bool;
  hedge_win : bool;
}

let local_route rid =
  {
    rid;
    first = 0;
    shard = 0;
    epoch = 0;
    attempts = 0;
    hedged = false;
    hedge_win = false;
  }

type blame = {
  fleet_queue : int;
  backoff : int;
  queue : int;
  gc_queue : int;
  service : int;
  gc_service : int;
}

let blame_total b =
  b.fleet_queue + b.backoff + b.queue + b.gc_queue + b.service + b.gc_service

let zero_blame =
  {
    fleet_queue = 0;
    backoff = 0;
    queue = 0;
    gc_queue = 0;
    service = 0;
    gc_service = 0;
  }

let add_blame a b =
  {
    fleet_queue = a.fleet_queue + b.fleet_queue;
    backoff = a.backoff + b.backoff;
    queue = a.queue + b.queue;
    gc_queue = a.gc_queue + b.gc_queue;
    service = a.service + b.service;
    gc_service = a.gc_service + b.gc_service;
  }

(* The conservation identity, in integer cycles.

   [enqueue] is the true shard-enqueue stamp (after any front-end
   backoff), [pre] the cycles the request spent backing off before it,
   [s_enq]/[s_start]/[s_fin] the VM's cumulative stopped-world integral
   sampled at enqueue, dispatch and completion.  The integral is
   monotone, so both GC overlaps are non-negative before clamping; each
   is clamped to the interval it overlaps, and the plain queue/service
   components are defined as the remainders — so

     fleet_queue + backoff + queue + gc_queue + service + gc_service
       = pre + (start - enqueue) + (finish - start)
       = finish - (enqueue - pre)

   holds exactly, with no floats involved. *)
let blame_of ~pre ~enqueue ~start ~finish ~s_enq ~s_start ~s_fin =
  let wait = start - enqueue in
  let serve = finish - start in
  let gc_queue = Int.min wait (Int.max 0 (s_start - s_enq)) in
  let gc_service = Int.min serve (Int.max 0 (s_fin - s_start)) in
  {
    fleet_queue = 0;
    backoff = pre;
    queue = wait - gc_queue;
    gc_queue;
    service = serve - gc_service;
    gc_service;
  }

type t = { route : route; enqueue : int; start : int; finish : int; blame : blame }

let e2e_cycles s = blame_total s.blame

(* Total order on spans for the worst-N list: slowest first, request id
   as the tiebreak.  Request ids are unique within a fleet run, so the
   order is total and the list is deterministic. *)
let worse a b =
  let ea = e2e_cycles a and eb = e2e_cycles b in
  if ea <> eb then compare eb ea else compare a.route.rid b.route.rid

let worst_k = 32
let exemplars_r = 4
let decades = 6

(* Latency decade of a span: <0.1 ms, 0.1-1, 1-10, 10-100, 100-1000,
   >= 1000 ms.  Used to key the exemplar reservoir. *)
let decade_of ~cycles_per_ms s =
  if cycles_per_ms <= 0.0 then 0
  else
    let ms = float_of_int (e2e_cycles s) /. cycles_per_ms in
    if ms <= 0.0 then 0
    else
      let d = int_of_float (Float.floor (Float.log10 ms)) + 2 in
      Int.max 0 (Int.min (decades - 1) d)

type summary = {
  count : int;
  sum : blame;
  sum_e2e : int;
  worst : t list;
  exemplars : (int * t) list;
  cycles_per_ms : float;
}

let empty_summary =
  {
    count = 0;
    sum = zero_blame;
    sum_e2e = 0;
    worst = [];
    exemplars = [];
    cycles_per_ms = 0.0;
  }

type collector = {
  cpm : float;
  rng : Prng.t;
  mutable count : int;
  mutable sum : blame;
  mutable sum_e2e : int;
  mutable worst : t list; (* sorted by [worse], length <= worst_k *)
  mutable nworst : int;
  mutable cutoff : t option;
      (* the last entry of [worst] once it holds [worst_k] spans: a new
         span enters the list only if it is worse than this one *)
  seen : int array; (* arrivals per decade, drives the reservoir *)
  slots : t option array array; (* decades x exemplars_r *)
}

let create ~cycles_per_ms ~seed =
  {
    cpm = cycles_per_ms;
    rng = Prng.create (seed + 0x5ba7e11);
    count = 0;
    sum = zero_blame;
    sum_e2e = 0;
    worst = [];
    nworst = 0;
    cutoff = None;
    seen = Array.make decades 0;
    slots = Array.init decades (fun _ -> Array.make exemplars_r None);
  }

let clear c =
  c.count <- 0;
  c.sum <- zero_blame;
  c.sum_e2e <- 0;
  c.worst <- [];
  c.nworst <- 0;
  c.cutoff <- None;
  Array.fill c.seen 0 decades 0;
  Array.iter (fun row -> Array.fill row 0 exemplars_r None) c.slots

let rec insert_worst s = function
  | [] -> [ s ]
  | x :: rest as l -> if worse s x < 0 then s :: l else x :: insert_worst s rest

let rec drop_last = function
  | [] | [ _ ] -> []
  | x :: rest -> x :: drop_last rest

let record c s =
  c.count <- c.count + 1;
  c.sum <- add_blame c.sum s.blame;
  c.sum_e2e <- c.sum_e2e + e2e_cycles s;
  (match c.cutoff with
  | None ->
      c.worst <- insert_worst s c.worst;
      c.nworst <- c.nworst + 1;
      if c.nworst = worst_k then
        c.cutoff <- Some (List.nth c.worst (worst_k - 1))
  | Some last ->
      if worse s last < 0 then begin
        c.worst <- drop_last (insert_worst s c.worst);
        c.cutoff <- Some (List.nth c.worst (worst_k - 1))
      end);
  (* Deterministic single-pass reservoir per latency decade: the first
     [exemplars_r] spans of a decade fill the slots, after which each
     newcomer replaces a uniformly drawn slot with probability r/seen. *)
  let d = decade_of ~cycles_per_ms:c.cpm s in
  c.seen.(d) <- c.seen.(d) + 1;
  if c.seen.(d) <= exemplars_r then c.slots.(d).(c.seen.(d) - 1) <- Some s
  else
    let j = Prng.int c.rng c.seen.(d) in
    if j < exemplars_r then c.slots.(d).(j) <- Some s

let summary c =
  let exemplars =
    let acc = ref [] in
    for d = decades - 1 downto 0 do
      for i = exemplars_r - 1 downto 0 do
        match c.slots.(d).(i) with
        | Some s -> acc := (d, s) :: !acc
        | None -> ()
      done
    done;
    (* canonical order inside each decade: by request id *)
    List.stable_sort
      (fun (da, a) (db, b) ->
        if da <> db then compare da db else compare a.route.rid b.route.rid)
      !acc
  in
  {
    count = c.count;
    sum = c.sum;
    sum_e2e = c.sum_e2e;
    worst = c.worst;
    exemplars;
    cycles_per_ms = c.cpm;
  }

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* Serial, order-sensitive merge: the fleet merge folds shard summaries
   in shard/incarnation order, so the result is deterministic.  Worst
   lists merge under the same total order; exemplars keep, per decade,
   the [exemplars_r] lowest request ids of the union — a rule that does
   not depend on merge order. *)
let merge a b =
  let rec merge_worst n xs ys =
    if n = 0 then []
    else
      match (xs, ys) with
      | [], [] -> []
      | x :: xr, [] -> x :: merge_worst (n - 1) xr []
      | [], y :: yr -> y :: merge_worst (n - 1) [] yr
      | x :: xr, y :: yr ->
          if worse x y <= 0 then x :: merge_worst (n - 1) xr ys
          else y :: merge_worst (n - 1) xs yr
  in
  let exemplars =
    let all =
      List.stable_sort
        (fun (da, a) (db, b) ->
          if da <> db then compare da db else compare a.route.rid b.route.rid)
        (a.exemplars @ b.exemplars)
    in
    let rec per_decade d rest =
      if d >= decades then []
      else
        let mine, others = List.partition (fun (dd, _) -> dd = d) rest in
        take exemplars_r mine @ per_decade (d + 1) others
    in
    per_decade 0 all
  in
  {
    count = a.count + b.count;
    sum = add_blame a.sum b.sum;
    sum_e2e = a.sum_e2e + b.sum_e2e;
    worst = merge_worst worst_k a.worst b.worst;
    exemplars;
    cycles_per_ms =
      (if a.cycles_per_ms > 0.0 then a.cycles_per_ms else b.cycles_per_ms);
  }
