module Heap = Cgc_heap.Heap
module Arena = Cgc_heap.Arena
module Alloc_bits = Cgc_heap.Alloc_bits
module Machine = Cgc_smp.Machine
module Cost = Cgc_smp.Cost
module Sched = Cgc_sim.Sched
module Obs = Cgc_obs.Obs
module Obs_event = Cgc_obs.Event

type stack = { mutable data : int array; mutable n : int }

let stack_push st v =
  if st.n = Array.length st.data then begin
    let bigger = Array.make (2 * st.n) 0 in
    Array.blit st.data 0 bigger 0 st.n;
    st.data <- bigger
  end;
  st.data.(st.n) <- v;
  st.n <- st.n + 1

let stack_pop st =
  if st.n = 0 then None
  else begin
    st.n <- st.n - 1;
    Some st.data.(st.n)
  end

let expose_threshold = 16
let batch = 8

type t = {
  heap : Heap.t;
  mach : Machine.t;
  priv : stack array;
  public : stack array; (* CAS-protected in the real system *)
  mutable items : int; (* entries across all stacks *)
  mutable busy : int; (* workers currently scanning an object *)
  mutable marked : int;
  mutable nsteals : int;
  mutable nexposes : int;
}

let create heap ~nworkers =
  {
    heap;
    mach = Heap.machine heap;
    priv = Array.init nworkers (fun _ -> { data = Array.make 256 0; n = 0 });
    public = Array.init nworkers (fun _ -> { data = Array.make 64 0; n = 0 });
    items = 0;
    busy = 0;
    marked = 0;
    nsteals = 0;
    nexposes = 0;
  }

let push_local t ~worker v =
  stack_push t.priv.(worker) v;
  t.items <- t.items + 1;
  (* Expose surplus for stealing: one synchronised batch transfer. *)
  if t.priv.(worker).n > expose_threshold then begin
    Machine.cas t.mach;
    t.nexposes <- t.nexposes + 1;
    for _ = 1 to batch do
      match stack_pop t.priv.(worker) with
      | Some v -> stack_push t.public.(worker) v
      | None -> ()
    done
  end

let push_obj t ~worker addr =
  if Heap.mark_test_and_set t.heap addr then push_local t ~worker addr

let valid_object t addr =
  Arena.in_heap (Heap.arena t.heap) addr
  && Alloc_bits.is_set (Heap.alloc_bits t.heap) addr
  && Arena.header_valid (Heap.arena t.heap) addr

let push_root t ~worker v =
  Machine.charge t.mach t.mach.Machine.cost.Cost.stack_slot;
  if valid_object t v && not (Heap.is_marked t.heap v) then begin
    push_obj t ~worker v;
    true
  end
  else false

let scan t ~worker addr =
  let arena = Heap.arena t.heap in
  let size = Arena.size_of arena addr in
  let nrefs = Arena.nrefs_of arena addr in
  let c = t.mach.Machine.cost in
  Machine.charge t.mach (c.Cost.trace_obj + (nrefs * c.Cost.trace_slot));
  for i = 0 to nrefs - 1 do
    let child = Arena.ref_get arena addr i in
    if child <> 0 then push_obj t ~worker child
  done;
  t.marked <- t.marked + size

let try_steal t ~worker =
  (* Pick the victim with the fullest public queue — the "difficulty of
     finding the right thread to steal from" is idealised away here,
     which only makes stealing look better in the comparison. *)
  let victim = ref (-1) in
  let best = ref 0 in
  Array.iteri
    (fun i q -> if i <> worker && q.n > !best then begin best := q.n; victim := i end)
    t.public;
  Machine.cas t.mach;
  if !victim < 0 then begin
    (* also try our own public queue *)
    if t.public.(worker).n > 0 then victim := worker
  end;
  if !victim < 0 then false
  else begin
    t.nsteals <- t.nsteals + 1;
    let q = t.public.(!victim) in
    let take = Int.max 1 (Int.min batch q.n) in
    for _ = 1 to take do
      match stack_pop q with
      | Some v ->
          stack_push t.priv.(worker) v
      | None -> ()
    done;
    Obs.instant t.mach.Machine.obs ~arg:take Obs_event.Packet_steal;
    true
  end

let mark_worker t ~worker =
  let continue = ref true in
  while !continue do
    match stack_pop t.priv.(worker) with
    | Some addr ->
        t.busy <- t.busy + 1;
        t.items <- t.items - 1;
        scan t ~worker addr;
        t.busy <- t.busy - 1;
        Machine.flush t.mach
    | None ->
        if try_steal t ~worker then Machine.flush t.mach
        else begin
          Machine.flush t.mach;
          (* Termination: no entries anywhere and nobody mid-scan.  This
             needs two globally consistent counters — compare with the
             packet pool's single sub-pool counter. *)
          if t.items = 0 && t.busy = 0 then continue := false
          else Sched.yield ()
        end
  done

let marked_slots t = t.marked
let steals t = t.nsteals
let exposes t = t.nexposes
