(* Tests for the heap substrate: arena/object model, free list, allocation
   bits, card table, allocation caches and card-object iteration. *)

module Machine = Cgc_smp.Machine
module Arena = Cgc_heap.Arena
module Freelist = Cgc_heap.Freelist
module Alloc_bits = Cgc_heap.Alloc_bits
module Card_table = Cgc_heap.Card_table
module Heap = Cgc_heap.Heap
module Bitvec = Cgc_util.Bitvec

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let mk_arena ?(nslots = 4096) () = Arena.create (Machine.testing ()) ~nslots

(* ------------------------------ Arena ------------------------------ *)

let test_header_roundtrip () =
  let a = mk_arena () in
  Arena.write_header a 100 ~size:17 ~nrefs:5;
  check ci "size" 17 (Arena.size_of a 100);
  check ci "nrefs" 5 (Arena.nrefs_of a 100);
  check cb "valid" true (Arena.header_valid a 100)

let test_header_extremes () =
  let a = mk_arena () in
  Arena.write_header a 1 ~size:2 ~nrefs:0;
  check ci "min size" 2 (Arena.size_of a 1);
  Arena.write_header a 10 ~size:100 ~nrefs:99;
  check ci "max nrefs" 99 (Arena.nrefs_of a 10)

let test_header_invalid_args () =
  let a = mk_arena () in
  Alcotest.check_raises "nrefs too big"
    (Invalid_argument "Arena.write_header: nrefs") (fun () ->
      Arena.write_header a 1 ~size:4 ~nrefs:4);
  Alcotest.check_raises "size zero" (Invalid_argument "Arena.write_header: size")
    (fun () -> Arena.write_header a 1 ~size:0 ~nrefs:0)

let test_header_valid_rejects_garbage () =
  let a = mk_arena () in
  check cb "zero slot invalid" false (Arena.header_valid a 50);
  Arena.write_slot a 51 12345;
  check cb "random int invalid" false (Arena.header_valid a 51)

let test_refs () =
  let a = mk_arena () in
  Arena.write_header a 10 ~size:8 ~nrefs:3;
  Arena.clear_fields a 10 ~nrefs:3;
  check ci "null after clear" 0 (Arena.ref_get a 10 1);
  Arena.ref_set_raw a 10 1 777;
  check ci "ref set" 777 (Arena.ref_get a 10 1)

(* Every int round-trips exactly through the arena's 64-bit words, at
   the first usable slot and the last one, under both memory models, and
   a write touches no neighbouring slot. *)
let test_slot_roundtrip () =
  let nslots = 4096 in
  let header = (1 lsl 61) lor (5 lsl 26) lor 17 in
  List.iter
    (fun (mode, name) ->
      let a = Arena.create (Machine.testing ~mode ()) ~nslots in
      Arena.write_header a 1 ~size:17 ~nrefs:5;
      check ci (name ^ ": header encoding") header (Arena.read_slot a 1);
      List.iter
        (fun slot ->
          let other = if slot = 1 then 2 else slot - 1 in
          Arena.write_slot a other 42;
          List.iter
            (fun v ->
              let what = Printf.sprintf "%s: slot %d holds %d" name slot v in
              Arena.write_slot a slot v;
              check ci (what ^ " (read_slot)") v (Arena.read_slot a slot);
              check ci (what ^ " (read_slot_sc)") v (Arena.read_slot_sc a slot);
              check ci (what ^ ", neighbour kept") 42 (Arena.read_slot_sc a other))
            [ 0; header; max_int; min_int; -1 ])
        [ 1; nslots - 1 ])
    [ (Cgc_smp.Weakmem.Sc, "sc"); (Cgc_smp.Weakmem.Relaxed, "relaxed") ]

let test_in_heap () =
  let a = mk_arena ~nslots:100 () in
  check cb "0 is null" false (Arena.in_heap a 0);
  check cb "1 ok" true (Arena.in_heap a 1);
  check cb "99 ok" true (Arena.in_heap a 99);
  check cb "100 out" false (Arena.in_heap a 100);
  check cb "negative out" false (Arena.in_heap a (-5))

let test_card_of_addr () =
  check ci "slot 0" 0 (Arena.card_of_addr 0);
  check ci "slot 63" 0 (Arena.card_of_addr 63);
  check ci "slot 64" 1 (Arena.card_of_addr 64);
  check ci "512 bytes per card" 64 Arena.slots_per_card

(* ------------------------------ Freelist ------------------------------ *)

let test_freelist_basic () =
  let f = Freelist.create () in
  Freelist.add f ~addr:100 ~size:50;
  check ci "free slots" 50 (Freelist.free_slots f);
  (match Freelist.alloc f 20 with
  | Some a -> check ci "allocates from chunk" 100 a
  | None -> Alcotest.fail "alloc failed");
  check ci "remainder kept" 30 (Freelist.free_slots f)

let test_freelist_exhaustion () =
  let f = Freelist.create () in
  Freelist.add f ~addr:10 ~size:16;
  check cb "too big fails" true (Freelist.alloc f 17 = None);
  check cb "exact fits" true (Freelist.alloc f 16 <> None);
  check cb "now empty" true (Freelist.alloc f 1 = None)

let test_freelist_dark_matter () =
  let f = Freelist.create () in
  Freelist.add f ~addr:10 ~size:2;
  check ci "small chunk dropped" 0 (Freelist.free_slots f);
  check ci "dark matter counted" 2 (Freelist.dark_matter f)

let test_freelist_alloc_range () =
  let f = Freelist.create () in
  Freelist.add f ~addr:100 ~size:1000;
  (match Freelist.alloc_range f ~min:10 ~pref:256 with
  | Some (a, s) ->
      check ci "addr" 100 a;
      check ci "pref size" 256 s
  | None -> Alcotest.fail "range alloc failed");
  check ci "remainder" 744 (Freelist.free_slots f);
  match Freelist.alloc_range f ~min:600 ~pref:800 with
  | Some (_, s) -> check ci "whole chunk when < pref" 744 s
  | None -> Alcotest.fail "range alloc 2 failed"

let test_freelist_clear () =
  let f = Freelist.create () in
  Freelist.add f ~addr:10 ~size:100;
  Freelist.clear f;
  check ci "cleared" 0 (Freelist.free_slots f);
  check ci "chunks" 0 (Freelist.chunk_count f)

(* Property: allocations never overlap and stay within added chunks. *)
let freelist_no_overlap =
  QCheck.Test.make ~name:"freelist allocations never overlap" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 1 64))
    (fun sizes ->
      let f = Freelist.create () in
      Freelist.add f ~addr:1 ~size:10_000;
      let taken = Hashtbl.create 64 in
      List.for_all
        (fun size ->
          match Freelist.alloc f size with
          | None -> true
          | Some a ->
              if a < 1 || a + size > 10_001 then false
              else begin
                let ok = ref true in
                for i = a to a + size - 1 do
                  if Hashtbl.mem taken i then ok := false
                  else Hashtbl.replace taken i ()
                done;
                !ok
              end)
        sizes)

let freelist_accounting =
  QCheck.Test.make ~name:"free_slots equals sum of chunks" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 30) (pair (int_range 1 100) (int_range 4 64)))
    (fun chunks ->
      let f = Freelist.create () in
      (* non-overlapping chunks at stride 200 *)
      List.iteri
        (fun i (_, size) -> Freelist.add f ~addr:(1 + (i * 200)) ~size)
        chunks;
      let total = ref 0 in
      Freelist.iter f (fun ~addr:_ ~size -> total := !total + size);
      !total = Freelist.free_slots f)

(* --------------------------- Alloc bits --------------------------- *)

let test_alloc_bits () =
  let m = Machine.testing () in
  let b = Alloc_bits.create m ~nslots:256 in
  Alloc_bits.set b 10;
  Alloc_bits.set b 100;
  check cb "set" true (Alloc_bits.is_set b 10);
  check cb "sc view" true (Alloc_bits.is_set_sc b 10);
  check ci "next_set" 10 (Alloc_bits.next_set b 0);
  check ci "prev_set" 100 (Alloc_bits.prev_set b 255);
  Alloc_bits.clear_range b 0 64;
  check cb "cleared by range" false (Alloc_bits.is_set b 10);
  check cb "outside range survives" true (Alloc_bits.is_set b 100)

(* --------------------------- Card table --------------------------- *)

let test_card_table () =
  let m = Machine.testing () in
  let ct = Card_table.create m ~ncards:64 in
  check ci "initially clean" 0 (Card_table.dirty_count ct);
  Card_table.dirty ct 5;
  Card_table.dirty ct 20;
  Card_table.dirty ct 5;
  check ci "two dirty" 2 (Card_table.dirty_count ct);
  check cb "is_dirty" true (Card_table.is_dirty ct 5);
  Card_table.clear ct 5;
  check cb "cleared" false (Card_table.is_dirty ct 5)

let test_card_snapshot () =
  let m = Machine.testing () in
  let ct = Card_table.create m ~ncards:64 in
  Card_table.dirty ct 3;
  Card_table.dirty ct 40;
  Card_table.dirty ct 12;
  let cards = Card_table.snapshot ct in
  check (Alcotest.list Alcotest.int) "registered ascending" [ 3; 12; 40 ] cards;
  check ci "indicators cleared" 0 (Card_table.dirty_count ct);
  check (Alcotest.list Alcotest.int) "second snapshot empty" []
    (Card_table.snapshot ct)

let test_card_clear_all () =
  let m = Machine.testing () in
  let ct = Card_table.create m ~ncards:16 in
  for i = 0 to 15 do
    Card_table.dirty ct i
  done;
  Card_table.clear_all ct;
  check ci "all clean" 0 (Card_table.dirty_count ct)

let test_card_counter_matches_recount () =
  (* The O(1) incremental dirty counter must track a committed-byte
     rescan through any interleaving of redundant dirties, clears of
     clean cards, snapshots and resets. *)
  let m = Machine.testing () in
  let ct = Card_table.create m ~ncards:128 in
  for k = 0 to 999 do
    let i = k * 13 mod 128 in
    if k mod 3 = 0 then Card_table.clear ct i else Card_table.dirty ct i;
    if Card_table.dirty_count ct <> Card_table.recount ct then
      Alcotest.failf "counter %d <> recount %d after op %d"
        (Card_table.dirty_count ct) (Card_table.recount ct) k
  done;
  ignore (Card_table.snapshot ct);
  check ci "clean after snapshot" 0 (Card_table.dirty_count ct);
  check ci "recount agrees" 0 (Card_table.recount ct);
  Card_table.dirty ct 7;
  Card_table.clear_all ct;
  check ci "clean after clear_all" 0 (Card_table.dirty_count ct);
  check ci "recount agrees after clear_all" 0 (Card_table.recount ct)

let test_card_snapshot_relaxed () =
  (* Under the Relaxed weak-memory model the snapshot has two paths: the
     exact byte-loop fallback while stores are in flight, and the
     word-scan fast path once everything has committed.  Both must leave
     the incremental counter agreeing with a committed rescan, and the
     fast path must register the same ascending card list Sc mode
     would. *)
  let m = Machine.testing ~mode:Cgc_smp.Weakmem.Relaxed ~seed:11 () in
  let ct = Card_table.create m ~ncards:64 in
  List.iter (Card_table.dirty ct) [ 3; 40; 12; 63 ];
  check ci "counter sees committed bytes" 4 (Card_table.dirty_count ct);
  check ci "recount agrees" 4 (Card_table.recount ct);
  (* Stores may still be in flight: whatever subset this snapshot
     registers, counter and rescan must agree afterwards. *)
  let first = Card_table.snapshot ct in
  check ci "counter = recount after in-flight snapshot"
    (Card_table.recount ct) (Card_table.dirty_count ct);
  (* Commit everything; a second snapshot (fast path) must register
     every card the first one missed, in ascending order. *)
  Cgc_util.Clock.spend m.Machine.clock 10_000_000;
  let second = Card_table.snapshot ct in
  let all = List.sort_uniq compare (first @ second) in
  check (Alcotest.list Alcotest.int) "every card registered exactly once"
    [ 3; 12; 40; 63 ] all;
  check ci "registered count" 4 (List.length first + List.length second);
  check cb "second snapshot ascending" true
    (second = List.sort compare second);
  check ci "clean afterwards" 0 (Card_table.dirty_count ct);
  check ci "recount clean too" 0 (Card_table.recount ct)

(* ------------------------------ Heap ------------------------------ *)

let mk_heap ?(nslots = 65536) ?fence_policy () =
  Heap.create ?fence_policy (Machine.testing ()) ~nslots

let test_cache_alloc_publishes_lazily () =
  let h = mk_heap () in
  let c = Heap.new_cache () in
  check cb "refill" true (Heap.refill_cache h c ~min:8 ~pref:256);
  let addr =
    match Heap.cache_alloc h c ~size:8 ~nrefs:2 ~mark_new:false with
    | Some a -> a
    | None -> Alcotest.fail "cache alloc failed"
  in
  check cb "allocation bit NOT yet set (batched)" false
    (Alloc_bits.is_set_sc (Heap.alloc_bits h) addr);
  Heap.retire_cache h c;
  check cb "allocation bit set after retire" true
    (Alloc_bits.is_set_sc (Heap.alloc_bits h) addr);
  let m = Heap.machine h in
  check cb "one batched fence" true
    (Cgc_smp.Fence.get m.Machine.fences Cgc_smp.Fence.Alloc_batch >= 1)

(* Under Relaxed memory each [Alloc_bits.set] draws its drain deadline
   from the weak-memory PRNG, so the order in which a retired cache
   publishes its objects' bits decides when each bit becomes visible to
   another processor -- and so the trace.  The cache publishes newest
   first.  The model replays the same stores by hand (headers, nulled
   fields, one batch fence, then the bits in a given order); the cache's
   visibility profile must equal the newest-first model's and differ from
   the oldest-first one.  The second publication's fence drains the first
   one's bits, so the order shows in the second: its 40 objects reuse the
   pending buffer and grow it twice. *)
let test_publication_order_relaxed () =
  let objs = List.init 45 (fun i -> (i, 2 + (i mod 5))) in
  let first, second = List.partition (fun (i, _) -> i < 5) objs in
  let nrefs size = size - 1 in
  let profile h addrs =
    let m = Heap.machine h in
    (* Drop the unspent allocation charges (which the model does not
       make), so both sides watch from the same simulated times. *)
    m.Machine.debt <- 0;
    m.Machine.clock.Cgc_util.Clock.tid <- 1;
    let seen = Array.make (List.length addrs) (-1) in
    for step = 0 to 130 do
      Cgc_smp.Weakmem.commit_due m.Machine.wm ~now:(Machine.now m);
      List.iteri
        (fun k a ->
          if seen.(k) < 0 && Alloc_bits.is_set (Heap.alloc_bits h) a then
            seen.(k) <- step)
        addrs;
      Machine.charge m 50;
      Machine.flush m
    done;
    Array.to_list seen
  in
  let mk () =
    Heap.create (Machine.testing ~mode:Cgc_smp.Weakmem.Relaxed ~seed:7 ())
      ~nslots:4096
  in
  (* the cache path *)
  let h = mk () in
  let c = Heap.new_cache () in
  let alloc objs =
    List.map
      (fun (_, size) ->
        let a =
          Heap.cache_alloc_addr h c ~size ~nrefs:(nrefs size) ~mark_new:false
        in
        if a = Heap.no_addr then Alcotest.fail "cache exhausted";
        a)
      objs
  in
  check cb "refill" true (Heap.refill_cache h c ~min:8 ~pref:512);
  let a1 = alloc first in
  check cb "second refill" true (Heap.refill_cache h c ~min:8 ~pref:512);
  let a2 = alloc second in
  Heap.retire_cache h c;
  let addrs = a1 @ a2 in
  let got = profile h addrs in
  (* the model: the same stores, the bits published in [order] *)
  let model order =
    let h = mk () in
    let arena = Heap.arena h and m = Heap.machine h in
    let c = Heap.new_cache () in
    let batch addrs objs =
      List.iter2
        (fun a (_, size) ->
          Arena.write_header arena a ~size ~nrefs:(nrefs size);
          Arena.clear_fields arena a ~nrefs:(nrefs size))
        addrs objs;
      Machine.fence m Cgc_smp.Fence.Alloc_batch;
      List.iter (Alloc_bits.set (Heap.alloc_bits h)) (order addrs)
    in
    ignore (Heap.refill_cache h c ~min:8 ~pref:512);
    batch a1 first;
    ignore (Heap.refill_cache h c ~min:8 ~pref:512);
    batch a2 second;
    profile h addrs
  in
  check (Alcotest.list ci) "newest-first publication" (model List.rev) got;
  check cb "the order is observable" true (model Fun.id <> got)

let test_cache_alloc_naive_policy () =
  let h = mk_heap ~fence_policy:Heap.Naive () in
  let c = Heap.new_cache () in
  ignore (Heap.refill_cache h c ~min:8 ~pref:256);
  let addr =
    match Heap.cache_alloc h c ~size:8 ~nrefs:0 ~mark_new:false with
    | Some a -> a
    | None -> Alcotest.fail "alloc failed"
  in
  check cb "bit set immediately under naive policy" true
    (Alloc_bits.is_set_sc (Heap.alloc_bits h) addr);
  let m = Heap.machine h in
  check cb "naive fence per object" true
    (Cgc_smp.Fence.get m.Machine.fences Cgc_smp.Fence.Naive_alloc >= 1)

let test_cache_exhaustion () =
  let h = mk_heap () in
  let c = Heap.new_cache () in
  ignore (Heap.refill_cache h c ~min:8 ~pref:64);
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Heap.cache_alloc h c ~size:8 ~nrefs:0 ~mark_new:false with
    | Some _ -> incr count
    | None -> continue := false
  done;
  check ci "8 objects of 8 slots in a 64-slot cache" 8 !count

let test_mark_new () =
  let h = mk_heap () in
  let c = Heap.new_cache () in
  ignore (Heap.refill_cache h c ~min:8 ~pref:256);
  let a =
    match Heap.cache_alloc h c ~size:8 ~nrefs:0 ~mark_new:true with
    | Some a -> a
    | None -> Alcotest.fail "alloc"
  in
  check cb "allocated black" true (Heap.is_marked h a)

let test_alloc_large () =
  let h = mk_heap () in
  match Heap.alloc_large h ~size:1000 ~nrefs:10 ~mark_new:false with
  | None -> Alcotest.fail "large alloc failed"
  | Some a ->
      check cb "bit set immediately" true
        (Alloc_bits.is_set_sc (Heap.alloc_bits h) a);
      check ci "size recorded" 1000 (Arena.size_of (Heap.arena h) a)

let test_free_slots_decrease () =
  let h = mk_heap ~nslots:4096 () in
  let before = Heap.free_slots h in
  ignore (Heap.alloc_large h ~size:500 ~nrefs:0 ~mark_new:false);
  check ci "free decreased" (before - 500) (Heap.free_slots h);
  check ci "cumulative counted" 500 (Heap.cumulative_alloc_slots h)

let test_heap_oom () =
  let h = mk_heap ~nslots:1024 () in
  check cb "too big fails" true
    (Heap.alloc_large h ~size:2000 ~nrefs:0 ~mark_new:false = None)

let test_object_overlapping () =
  let h = mk_heap () in
  match Heap.alloc_large h ~size:200 ~nrefs:0 ~mark_new:false with
  | None -> Alcotest.fail "alloc"
  | Some a -> (
      (match Heap.object_overlapping h (a + 100) with
      | Some a' -> check ci "found spanning object" a a'
      | None -> Alcotest.fail "not found");
      match Heap.object_overlapping h (a + 500) with
      | Some a' -> check cb "past the end" true (a' <> a)
      | None -> ())

let test_iter_marked_on_card () =
  let h = mk_heap () in
  (* allocate several objects; mark some; check card iteration *)
  let c = Heap.new_cache () in
  ignore (Heap.refill_cache h c ~min:8 ~pref:512);
  let addrs = ref [] in
  for _ = 1 to 20 do
    match Heap.cache_alloc h c ~size:16 ~nrefs:0 ~mark_new:false with
    | Some a -> addrs := a :: !addrs
    | None -> Alcotest.fail "alloc"
  done;
  Heap.retire_cache h c;
  let addrs = Array.of_list (List.rev !addrs) in
  ignore (Heap.mark_test_and_set h addrs.(0));
  ignore (Heap.mark_test_and_set h addrs.(5));
  ignore (Heap.mark_test_and_set h addrs.(10));
  let found = ref [] in
  let cards =
    List.sort_uniq compare
      (List.map Arena.card_of_addr [ addrs.(0); addrs.(5); addrs.(10) ])
  in
  List.iter
    (fun card -> Heap.iter_marked_on_card h card (fun a -> found := a :: !found))
    cards;
  List.iter
    (fun a ->
      check cb
        (Printf.sprintf "marked object %d found" a)
        true
        (List.mem a !found))
    [ addrs.(0); addrs.(5); addrs.(10) ];
  check cb "unmarked not reported" false (List.mem addrs.(3) !found)

let test_mark_test_and_set () =
  let h = mk_heap () in
  check cb "first marks" true (Heap.mark_test_and_set h 77);
  check cb "second does not" false (Heap.mark_test_and_set h 77);
  Heap.clear_marks h;
  check cb "cleared" false (Heap.is_marked h 77)

let () =
  Alcotest.run "heap"
    [
      ( "arena",
        [
          Alcotest.test_case "header roundtrip" `Quick test_header_roundtrip;
          Alcotest.test_case "header extremes" `Quick test_header_extremes;
          Alcotest.test_case "header invalid args" `Quick test_header_invalid_args;
          Alcotest.test_case "garbage headers rejected" `Quick
            test_header_valid_rejects_garbage;
          Alcotest.test_case "refs" `Quick test_refs;
          Alcotest.test_case "slot round-trip" `Quick test_slot_roundtrip;
          Alcotest.test_case "in_heap" `Quick test_in_heap;
          Alcotest.test_case "card_of_addr" `Quick test_card_of_addr;
        ] );
      ( "freelist",
        [
          Alcotest.test_case "basic" `Quick test_freelist_basic;
          Alcotest.test_case "exhaustion" `Quick test_freelist_exhaustion;
          Alcotest.test_case "dark matter" `Quick test_freelist_dark_matter;
          Alcotest.test_case "alloc_range" `Quick test_freelist_alloc_range;
          Alcotest.test_case "clear" `Quick test_freelist_clear;
          QCheck_alcotest.to_alcotest freelist_no_overlap;
          QCheck_alcotest.to_alcotest freelist_accounting;
        ] );
      ("alloc-bits", [ Alcotest.test_case "basic" `Quick test_alloc_bits ]);
      ( "card-table",
        [
          Alcotest.test_case "dirty/clean" `Quick test_card_table;
          Alcotest.test_case "snapshot protocol" `Quick test_card_snapshot;
          Alcotest.test_case "clear_all" `Quick test_card_clear_all;
          Alcotest.test_case "incremental counter = recount" `Quick
            test_card_counter_matches_recount;
          Alcotest.test_case "snapshot under relaxed memory" `Quick
            test_card_snapshot_relaxed;
        ] );
      ( "heap",
        [
          Alcotest.test_case "batched publication" `Quick
            test_cache_alloc_publishes_lazily;
          Alcotest.test_case "naive fence policy" `Quick
            test_cache_alloc_naive_policy;
          Alcotest.test_case "publication order under relaxed memory" `Quick
            test_publication_order_relaxed;
          Alcotest.test_case "cache exhaustion" `Quick test_cache_exhaustion;
          Alcotest.test_case "allocate black" `Quick test_mark_new;
          Alcotest.test_case "large objects" `Quick test_alloc_large;
          Alcotest.test_case "free accounting" `Quick test_free_slots_decrease;
          Alcotest.test_case "oom" `Quick test_heap_oom;
          Alcotest.test_case "object_overlapping" `Quick test_object_overlapping;
          Alcotest.test_case "iter_marked_on_card" `Quick
            test_iter_marked_on_card;
          Alcotest.test_case "mark test-and-set" `Quick test_mark_test_and_set;
        ] );
    ]
