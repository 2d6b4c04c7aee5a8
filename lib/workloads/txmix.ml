module Mutator = Cgc_runtime.Mutator
module Collector = Cgc_core.Collector
module Prng = Cgc_util.Prng

type profile = {
  live_lists : int;
  list_len : int;
  node_slots : int;
  leaf_fanout : int;
  leaf_slots : int;
  transient_objs : int;
  transient_slots : int;
  mutations : int;
  tx_work : int;
  think_mean : int;
  large_every : int;
  large_slots : int;
  junk_roots : bool;
}

let node_group_slots p = p.node_slots + (p.leaf_fanout * p.leaf_slots)

let resident_slots p =
  (p.live_lists * p.list_len * node_group_slots p) + p.live_lists + 1

let scale_residency p ~target_slots =
  let per_list = Int.max 1 (p.live_lists * node_group_slots p) in
  let len = Int.max 1 (target_slots / per_list) in
  { p with list_len = len }

(* Root-slot conventions inside a transaction:
   0: resident-set directory (private workers only)
   1: transient chain head
   2: transient large object
   3: junk (non-pointer) slot
   4: pinned old list head during a mutation
   5: pinned list tail during a mutation
   6: node under construction (build_node)
   7: partial list head during resident-set construction *)

(* A list node carries its [next] pointer in ref slot 0 and leaf objects
   (order lines) in the following slots. *)
let build_node p m ~next =
  let node =
    Mutator.alloc m ~nrefs:(1 + p.leaf_fanout)
      ~size:(Int.max p.node_slots (2 + p.leaf_fanout))
  in
  if next <> 0 then Mutator.set_ref m node 0 next;
  Mutator.root_set m 6 node;
  for j = 0 to p.leaf_fanout - 1 do
    let leaf = Mutator.alloc m ~nrefs:0 ~size:p.leaf_slots in
    Mutator.set_ref m node (1 + j) leaf;
    Mutator.root_set m 6 node
  done;
  Mutator.root_set m 6 0;
  node

let build_resident p m =
  let dir = Mutator.alloc m ~nrefs:p.live_lists ~size:(p.live_lists + 1) in
  Mutator.root_set m 0 dir;
  for i = 0 to p.live_lists - 1 do
    let head = ref 0 in
    for _ = 1 to p.list_len do
      head := build_node p m ~next:!head;
      Mutator.root_set m 7 !head
    done;
    Mutator.set_ref m dir i !head;
    Mutator.root_set m 7 0;
    Mutator.root_set m 0 dir
  done;
  dir

let mutate_one p m ~dir =
  let rng = Mutator.rng m in
  let i = Prng.int rng p.live_lists in
  let oldh = Mutator.get_ref m dir i in
  (* Pin the nodes we read before any allocation can trigger a GC: once
     the directory stops referencing them they are only reachable from
     these roots. *)
  Mutator.root_set m 4 oldh;
  let tail = if oldh = 0 then 0 else Mutator.get_ref m oldh 0 in
  Mutator.root_set m 5 tail;
  let n = build_node p m ~next:tail in
  Mutator.set_ref m dir i n;
  Mutator.root_set m 4 0;
  Mutator.root_set m 5 0

let transaction p m ~dir =
  let rng = Mutator.rng m in
  (* Transient allocation: a chain dropped at transaction end. *)
  let prev = ref 0 in
  for _ = 1 to p.transient_objs do
    let o = Mutator.alloc m ~nrefs:1 ~size:p.transient_slots in
    if !prev <> 0 then Mutator.set_ref m o 0 !prev;
    prev := o;
    Mutator.root_set m 1 o
  done;
  for _ = 1 to p.mutations do
    mutate_one p m ~dir
  done;
  if p.large_every > 0 && Prng.int rng p.large_every = 0 then begin
    let l = Mutator.alloc m ~nrefs:0 ~size:p.large_slots in
    Mutator.root_set m 2 l
  end;
  if p.junk_roots then
    Mutator.root_set m 3 (Prng.int rng max_int);
  Mutator.work m p.tx_work;
  Mutator.root_set m 1 0;
  Mutator.root_set m 2 0;
  if p.think_mean > 0 then
    Mutator.think m
      (1 + int_of_float (Prng.exponential rng (float_of_int p.think_mean)));
  Mutator.tx_done m

let body p m =
  let dir = build_resident p m in
  while not (Mutator.stopped m) do
    transaction p m ~dir
  done

let shared_body p ~global_slot ~builder m =
  let coll = Mutator.collector m in
  if builder then begin
    let dir = build_resident p m in
    Collector.global_set coll global_slot dir
  end;
  (* Wait until the warehouse database is published. *)
  while Collector.global_get coll global_slot = 0 && not (Mutator.stopped m) do
    Mutator.think m 50_000
  done;
  while not (Mutator.stopped m) do
    let dir = Collector.global_get coll global_slot in
    Mutator.root_set m 0 dir;
    transaction p m ~dir
  done
