(* Demonstrating the weak-ordering races of section 5 on the relaxed
   memory simulator — and that the paper's fence-batching protocols close
   them without putting a fence in every write barrier or allocation.

   Run with:  dune exec examples/weak_memory.exe *)

module Machine = Cgc_smp.Machine
module Weakmem = Cgc_smp.Weakmem
module Heap = Cgc_heap.Heap
module Arena = Cgc_heap.Arena
module Card_table = Cgc_heap.Card_table
module Pool = Cgc_packets.Pool

(* Race 1 (section 5.1): a work packet handed from one processor to
   another without the producer-side fence exposes stale contents. *)
let race1 ~fenced =
  let fails = ref 0 in
  let trials = 500 in
  for seed = 1 to trials do
    let m = Machine.testing ~mode:Weakmem.Relaxed ~seed () in
    let pl = Pool.create ~fence_on_put:fenced m ~n_packets:4 ~capacity:8 in
    m.Machine.clock.tid <- 1;
    let p = Option.get (Pool.get_output pl) in
    for i = 1 to 5 do
      ignore (Pool.push pl p (100 + i))
    done;
    Pool.put pl p;
    m.Machine.clock.tid <- 2;
    let q = Option.get (Pool.get_input pl) in
    let stale = ref false in
    let rec drain () =
      match Pool.pop pl q with
      | Some v ->
          if v < 101 || v > 105 then stale := true;
          drain ()
      | None -> ()
    in
    drain ();
    if !stale then incr fails
  done;
  (!fails, trials)

(* Race 3 (section 5.3): the card-dirtying store becomes visible before
   the reference store it covers; a cleaner that does not force the
   mutator to fence misses the reference. *)
let race3 ~force_fence =
  let fails = ref 0 in
  let trials = 500 in
  for seed = 1 to trials do
    let m = Machine.testing ~mode:Weakmem.Relaxed ~seed () in
    let heap = Heap.create m ~nslots:4096 in
    m.Machine.clock.tid <- 1;
    let o1 = Option.get (Heap.alloc_large heap ~size:8 ~nrefs:1 ~mark_new:false) in
    let o2 = Option.get (Heap.alloc_large heap ~size:8 ~nrefs:0 ~mark_new:false) in
    Weakmem.fence m.Machine.wm ~cpu:1 ~now:(Machine.now m);
    ignore (Heap.mark_test_and_set heap o1);
    Arena.ref_set_raw (Heap.arena heap) o1 0 o2;
    Card_table.dirty (Heap.cards heap) (Arena.card_of_addr o1);
    Machine.charge m 3_000;
    Machine.flush m;
    Weakmem.commit_due m.Machine.wm ~now:(Machine.now m);
    m.Machine.clock.tid <- 2;
    let registered = Card_table.snapshot (Heap.cards heap) in
    if force_fence then Weakmem.fence m.Machine.wm ~cpu:1 ~now:(Machine.now m);
    let found = ref false in
    List.iter
      (fun card ->
        Heap.iter_marked_on_card heap card (fun addr ->
            if Arena.ref_get (Heap.arena heap) addr 0 = o2 then found := true))
      registered;
    if registered <> [] && not !found then incr fails
  done;
  (!fails, trials)

let report name (fails, trials) =
  Printf.printf "  %-46s %4d / %d trials lost an update\n" name fails trials

let () =
  print_endline
    "Weak-ordering races on the relaxed-memory simulator (500 seeds each):";
  print_endline "";
  print_endline "Race 1 — packet hand-off between processors (section 5.1):";
  report "without the fence-before-put" (race1 ~fenced:false);
  report "with one fence per returned packet" (race1 ~fenced:true);
  print_endline "";
  print_endline "Race 3 — card cleaning vs the write barrier (section 5.3):";
  report "snapshot only, no forced mutator fence" (race3 ~force_fence:false);
  report "snapshot + forced mutator fence" (race3 ~force_fence:true);
  print_endline "";
  print_endline
    "The batched protocols (one fence per packet, none in the write barrier)\n\
     are exactly strong enough: zero losses with them, reproducible losses\n\
     without.  See test/test_races.ml for the full property checks, including\n\
     the section 5.2 allocation-bit protocol."
