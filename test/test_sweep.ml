(* Tests for bitwise sweep: region scanning, boundary merging, allocation
   bit clearing, live accounting, and the lazy-sweep variant, including a
   property test against a reference mark/sweep model. *)

module Machine = Cgc_smp.Machine
module Heap = Cgc_heap.Heap
module Arena = Cgc_heap.Arena
module Alloc_bits = Cgc_heap.Alloc_bits
module Freelist = Cgc_heap.Freelist
module Sweep = Cgc_core.Sweep

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let mk_heap ?(nslots = 4096) () = Heap.create (Machine.testing ()) ~nslots

(* Lay out objects at chosen addresses; mark a subset; return the heap. *)
let build nslots objs marked =
  let h = mk_heap ~nslots () in
  List.iter
    (fun (addr, size) ->
      Arena.write_header (Heap.arena h) addr ~size ~nrefs:0;
      Alloc_bits.set (Heap.alloc_bits h) addr)
    objs;
  List.iter (fun addr -> ignore (Heap.mark_test_and_set h addr)) marked;
  h

let sweep_with ~workers h =
  let regs = Sweep.regions ~nslots:(Heap.nslots h) ~workers in
  let results = Array.map (fun (lo, hi) -> Sweep.sweep_region h ~lo ~hi) regs in
  Sweep.merge h results

let test_empty_heap_all_free () =
  let h = build 4096 [] [] in
  let live = sweep_with ~workers:1 h in
  check ci "no live" 0 live;
  check ci "everything free" 4095 (Freelist.free_slots (Heap.freelist h))

let test_single_live_object () =
  let h = build 4096 [ (100, 50) ] [ 100 ] in
  let live = sweep_with ~workers:1 h in
  check ci "live slots" 50 live;
  check ci "rest free" (4095 - 50) (Freelist.free_slots (Heap.freelist h));
  check cb "live object keeps alloc bit" true
    (Alloc_bits.is_set_sc (Heap.alloc_bits h) 100)

let test_dead_object_reclaimed () =
  let h = build 4096 [ (100, 50); (200, 30) ] [ 100 ] in
  let live = sweep_with ~workers:1 h in
  check ci "only marked lives" 50 live;
  check cb "dead object loses alloc bit" false
    (Alloc_bits.is_set_sc (Heap.alloc_bits h) 200);
  check ci "its memory is free" (4095 - 50)
    (Freelist.free_slots (Heap.freelist h))

let test_adjacent_live_objects () =
  let h = build 4096 [ (10, 20); (30, 20); (50, 20) ] [ 10; 30; 50 ] in
  let live = sweep_with ~workers:1 h in
  check ci "all live" 60 live;
  (* free: [1,10) and [70, 4096) *)
  check ci "free accounting" (9 + (4096 - 70))
    (Freelist.free_slots (Heap.freelist h))

let test_parallel_matches_serial () =
  let objs =
    List.init 50 (fun i -> ((i * 80) + 7, 10 + (i mod 30)))
  in
  let marked = List.filteri (fun i _ -> i mod 3 <> 0) (List.map fst objs) in
  let h1 = build 4096 objs marked in
  let live1 = sweep_with ~workers:1 h1 in
  let free1 = Freelist.free_slots (Heap.freelist h1) in
  let h4 = build 4096 objs marked in
  let live4 = sweep_with ~workers:4 h4 in
  let free4 = Freelist.free_slots (Heap.freelist h4) in
  check ci "live agrees" live1 live4;
  check ci "free agrees" free1 free4

let test_object_spanning_region_boundary () =
  (* 4 workers on 4096 slots: boundaries near 1024, 2048...  place a live
     object straddling 1024. *)
  let h = build 4096 [ (1000, 100); (2000, 10) ] [ 1000; 2000 ] in
  let live = sweep_with ~workers:4 h in
  check ci "live" 110 live;
  (* the straddling object's interior must not be freed *)
  Freelist.iter (Heap.freelist h) (fun ~addr ~size ->
      if addr < 1100 && addr + size > 1000 then
        Alcotest.failf "free chunk [%d,%d) overlaps live object" addr
          (addr + size))

(* --------------------------- region seams --------------------------- *)

(* 4 workers on 4096 slots split at 1025/2049/3073 (span 1024 from slot
   1).  The seam cases below are where the per-region first_mark /
   last_end bookkeeping and the merge's prev_end threading can go wrong. *)

let assert_no_overlap h ~lo ~hi =
  Freelist.iter (Heap.freelist h) (fun ~addr ~size ->
      if addr < hi && addr + size > lo then
        Alcotest.failf "free chunk [%d,%d) overlaps live object [%d,%d)" addr
          (addr + size) lo hi)

let test_live_ends_at_region_boundary () =
  (* Object [1005, 1025) ends exactly where region 0 ends: region 0's
     last_end equals its hi, and region 1's leading gap must start at
     exactly 1025 — an off-by-one in either direction loses or frees a
     slot at the seam. *)
  let h = build 4096 [ (1005, 20); (2000, 10) ] [ 1005; 2000 ] in
  let live = sweep_with ~workers:4 h in
  check ci "live" 30 live;
  check ci "free accounting" (4095 - 30) (Freelist.free_slots (Heap.freelist h));
  assert_no_overlap h ~lo:1005 ~hi:1025;
  assert_no_overlap h ~lo:2000 ~hi:2010

let test_empty_leading_region () =
  (* Regions 0-2 hold no marks at all; the merge must thread one free
     run from slot 1 through the empty regions up to the first live
     object in region 3. *)
  let h = build 4096 [ (3500, 25) ] [ 3500 ] in
  let live = sweep_with ~workers:4 h in
  check ci "live" 25 live;
  check ci "free accounting" (4095 - 25) (Freelist.free_slots (Heap.freelist h));
  assert_no_overlap h ~lo:3500 ~hi:3525

let test_single_region_heap () =
  (* One worker, one region covering the whole heap, with a live object
     ending exactly at the heap end — last_end = nslots must produce no
     trailing free chunk. *)
  let h = build 64 [ (10, 6); (50, 14) ] [ 10; 50 ] in
  let live = sweep_with ~workers:1 h in
  check ci "live" 20 live;
  check ci "free accounting" (63 - 20) (Freelist.free_slots (Heap.freelist h));
  assert_no_overlap h ~lo:50 ~hi:64

let test_lazy_ends_at_window_boundary () =
  (* Lazy window [1, 257): object [237, 257) ends exactly at the window
     edge, so the step must park the cursor at 257 without emitting a
     partial free run into the object. *)
  let objs = [ (237, 20); (300, 10); (4000, 30) ] in
  let marked = [ 237; 4000 ] in
  let h_eager = build 4096 objs marked in
  let live_eager = sweep_with ~workers:1 h_eager in
  let free_eager = Freelist.free_slots (Heap.freelist h_eager) in
  let h = build 4096 objs marked in
  let lz = Sweep.lazy_begin h in
  ignore (Sweep.lazy_step h lz ~max_slots:256 ~on_finish:ignore);
  check ci "cursor parked exactly at the object end" 257 (Sweep.lazy_pos lz);
  Sweep.lazy_finish h lz;
  check ci "lazy live agrees" live_eager (Sweep.lazy_live lz);
  check ci "lazy free agrees" free_eager
    (Freelist.free_slots (Heap.freelist h));
  assert_no_overlap h ~lo:237 ~hi:257

let test_lazy_empty_leading_windows () =
  (* The first live object sits far past several all-empty windows; each
     empty step must emit exactly its window as free space. *)
  let objs = [ (3000, 40) ] in
  let h_eager = build 4096 objs [ 3000 ] in
  let live_eager = sweep_with ~workers:1 h_eager in
  let free_eager = Freelist.free_slots (Heap.freelist h_eager) in
  let h = build 4096 objs [ 3000 ] in
  let lz = Sweep.lazy_begin h in
  ignore (Sweep.lazy_step h lz ~max_slots:256 ~on_finish:ignore);
  check ci "one empty window freed" 256
    (Freelist.free_slots (Heap.freelist h));
  Sweep.lazy_finish h lz;
  check ci "lazy live agrees" live_eager (Sweep.lazy_live lz);
  check ci "lazy free agrees" free_eager
    (Freelist.free_slots (Heap.freelist h))

let test_lazy_single_window () =
  (* A window at least as large as the heap: one step sweeps everything
     and finishes, including the object ending exactly at the heap end. *)
  let objs = [ (10, 6); (50, 14) ] in
  let h_eager = build 64 objs [ 10; 50 ] in
  let live_eager = sweep_with ~workers:1 h_eager in
  let free_eager = Freelist.free_slots (Heap.freelist h_eager) in
  let h = build 64 objs [ 10; 50 ] in
  let lz = Sweep.lazy_begin h in
  check cb "first step runs" true
    (Sweep.lazy_step h lz ~max_slots:8192 ~on_finish:ignore);
  check ci "cursor reached the heap end" 64 (Sweep.lazy_pos lz);
  (* The object ending exactly at the heap end leaves the cursor parked
     at nslots with the finished flag still unset; the next (empty) step
     closes the sweep. *)
  Sweep.lazy_finish h lz;
  check cb "finished: a further step returns false" false
    (Sweep.lazy_step h lz ~max_slots:8192 ~on_finish:ignore);
  check ci "lazy live agrees" live_eager (Sweep.lazy_live lz);
  check ci "lazy free agrees" free_eager
    (Freelist.free_slots (Heap.freelist h))

let test_allocatable_after_sweep () =
  let h = build 4096 [ (2000, 100) ] [ 2000 ] in
  ignore (sweep_with ~workers:2 h);
  (* allocate from the rebuilt free list; must not land inside live obj *)
  match Freelist.alloc (Heap.freelist h) 500 with
  | None -> Alcotest.fail "allocation after sweep failed"
  | Some a ->
      check cb "no overlap with live" true (a + 500 <= 2000 || a >= 2100)

(* ------------------------------ Lazy sweep ------------------------------ *)

let test_lazy_matches_eager () =
  let objs = List.init 30 (fun i -> ((i * 120) + 3, 15)) in
  let marked = List.filteri (fun i _ -> i mod 2 = 0) (List.map fst objs) in
  let h_eager = build 4096 objs marked in
  let live_eager = sweep_with ~workers:1 h_eager in
  let free_eager = Freelist.free_slots (Heap.freelist h_eager) in
  let h_lazy = build 4096 objs marked in
  let lz = Sweep.lazy_begin h_lazy in
  check ci "free list starts empty" 0 (Freelist.free_slots (Heap.freelist h_lazy));
  let steps = ref 0 and finished = ref 0 in
  while !finished = 0 do
    ignore
      (Sweep.lazy_step h_lazy lz ~max_slots:256 ~on_finish:(fun () ->
           incr finished));
    incr steps
  done;
  check cb "took multiple steps" true (!steps > 4);
  check ci "lazy live agrees" live_eager (Sweep.lazy_live lz);
  check ci "lazy free agrees" free_eager
    (Freelist.free_slots (Heap.freelist h_lazy));
  check cb "step after finish returns false" false
    (Sweep.lazy_step h_lazy lz ~max_slots:256 ~on_finish:(fun () ->
         incr finished));
  check ci "on_finish ran once, in the finishing step" 1 !finished

let test_lazy_finish () =
  let h = build 4096 [ (500, 40) ] [ 500 ] in
  let lz = Sweep.lazy_begin h in
  Sweep.lazy_finish h lz;
  check cb "finished: a further step returns false" false
    (Sweep.lazy_step h lz ~max_slots:4096 ~on_finish:ignore);
  check ci "live" 40 (Sweep.lazy_live lz)

let test_lazy_incremental_allocation () =
  (* Allocation can proceed from partial lazy-sweep results. *)
  let h = build 8192 [ (8000, 50) ] [ 8000 ] in
  let lz = Sweep.lazy_begin h in
  ignore (Sweep.lazy_step h lz ~max_slots:1024 ~on_finish:ignore);
  check cb "some free space available early" true
    (Freelist.free_slots (Heap.freelist h) > 0);
  match Freelist.alloc (Heap.freelist h) 100 with
  | Some _ -> ()
  | None -> Alcotest.fail "could not allocate from partial sweep"

(* A mark bit inside a live object's extent (a stale or corrupt
   reference can set one) is not a head.  The walk looks for the next
   head from the head's successor, finds that bit inside the object, and
   searches again from the object's end.  Gaps and live volume must be
   what a walk resuming at the object's end gives: heads 10, 30 and 40,
   with the bits at 13, 41 and 45 (the object's last slot) skipped. *)
let interior_objs = [ (10, 8); (30, 4); (40, 6); (200, 3) ]
let interior_marks = [ 10; 13; 30; 40; 41; 45 ]

let test_interior_mark_region () =
  let h = build 4096 interior_objs interior_marks in
  let r = Sweep.sweep_region h ~lo:1 ~hi:4096 in
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "gaps" [ (18, 12); (34, 6) ] (Sweep.gaps r);
  check ci "live" 18 (Sweep.live r)

let test_interior_mark_lazy () =
  let h = build 4096 interior_objs interior_marks in
  let lz = Sweep.lazy_begin h in
  (* The first window ends inside the object at 40, below its interior
     bit at 45; the second starts at that object's end. *)
  ignore (Sweep.lazy_step h lz ~max_slots:43 ~on_finish:ignore);
  check ci "cursor parked at the object end" 46 (Sweep.lazy_pos lz);
  check ci "free so far" (9 + 12 + 6) (Freelist.free_slots (Heap.freelist h));
  Sweep.lazy_finish h lz;
  check ci "live" 18 (Sweep.lazy_live lz);
  check ci "free" (4095 - 18) (Freelist.free_slots (Heap.freelist h))

(* Property: sweep (eager, any worker count) frees exactly the unmarked
   space and preserves exactly the marked objects. *)
let sweep_model =
  QCheck.Test.make ~name:"sweep matches reference model" ~count:80
    QCheck.(
      pair (int_range 1 4)
        (list_of_size (Gen.int_range 0 40) (pair (int_range 0 200) (int_range 2 40))))
    (fun (workers, raw) ->
      let nslots = 8192 in
      (* convert raw pairs into non-overlapping objects *)
      let objs = ref [] in
      let cursor = ref 1 in
      List.iter
        (fun (gap, size) ->
          let addr = !cursor + gap in
          if addr + size < nslots then begin
            objs := (addr, size) :: !objs;
            cursor := addr + size
          end)
        raw;
      let objs = List.rev !objs in
      let marked =
        List.filteri (fun i _ -> i mod 2 = 0) (List.map fst objs)
      in
      let h = build nslots objs marked in
      let live = sweep_with ~workers h in
      let expected_live =
        List.fold_left
          (fun acc (a, s) -> if List.mem a marked then acc + s else acc)
          0 objs
      in
      let free = Freelist.free_slots (Heap.freelist h) in
      let dark = Freelist.dark_matter (Heap.freelist h) in
      live = expected_live && free + dark + live = nslots - 1)

(* Property: [sweep_region]'s head-skipping scan finds the same gaps and
   live volume as visiting every mark bit of the region.  Marks may sit
   inside another marked object's extent (they are skipped), headers may
   decode to size 0, and objects may run past the region's end. *)
let sweep_region_per_bit =
  QCheck.Test.make ~name:"sweep_region matches a per-bit scan" ~count:300
    QCheck.(
      triple (int_range 0 300) (int_range 1 400)
        (list_of_size (Gen.int_range 0 60)
           (pair (int_range 1 511) (int_range 0 70))))
    (fun (lo, len, marks) ->
      let nslots = 512 in
      let lo = max 1 lo in
      let hi = min nslots (lo + len) in
      let h = mk_heap ~nslots () in
      let arena = Heap.arena h in
      List.iter
        (fun (addr, size) ->
          if size = 0 then Arena.write_slot arena addr 0
          else Arena.write_header arena addr ~size ~nrefs:0;
          ignore (Heap.mark_test_and_set h addr))
        marks;
      let gaps = ref [] and live = ref 0 and cur_end = ref (-1) in
      let first = ref true in
      for m = lo to hi - 1 do
        if Heap.is_marked h m && m >= !cur_end then begin
          if !first then first := false
          else if m > !cur_end then gaps := (!cur_end, m - !cur_end) :: !gaps;
          let size = Arena.size_of_sc arena m in
          live := !live + size;
          cur_end := m + size
        end
      done;
      let r = Sweep.sweep_region h ~lo ~hi in
      Sweep.gaps r = List.rev !gaps && Sweep.live r = !live)

let () =
  Alcotest.run "sweep"
    [
      ( "eager",
        [
          Alcotest.test_case "empty heap" `Quick test_empty_heap_all_free;
          Alcotest.test_case "single live" `Quick test_single_live_object;
          Alcotest.test_case "dead reclaimed" `Quick test_dead_object_reclaimed;
          Alcotest.test_case "adjacent live" `Quick test_adjacent_live_objects;
          Alcotest.test_case "interior mark skipped" `Quick
            test_interior_mark_region;
          Alcotest.test_case "parallel = serial" `Quick
            test_parallel_matches_serial;
          Alcotest.test_case "spans region boundary" `Quick
            test_object_spanning_region_boundary;
          Alcotest.test_case "live ends at region boundary" `Quick
            test_live_ends_at_region_boundary;
          Alcotest.test_case "empty leading region" `Quick
            test_empty_leading_region;
          Alcotest.test_case "single-region heap" `Quick
            test_single_region_heap;
          Alcotest.test_case "allocatable after sweep" `Quick
            test_allocatable_after_sweep;
          QCheck_alcotest.to_alcotest sweep_model;
          QCheck_alcotest.to_alcotest sweep_region_per_bit;
        ] );
      ( "lazy",
        [
          Alcotest.test_case "matches eager" `Quick test_lazy_matches_eager;
          Alcotest.test_case "finish" `Quick test_lazy_finish;
          Alcotest.test_case "incremental allocation" `Quick
            test_lazy_incremental_allocation;
          Alcotest.test_case "live ends at window boundary" `Quick
            test_lazy_ends_at_window_boundary;
          Alcotest.test_case "empty leading windows" `Quick
            test_lazy_empty_leading_windows;
          Alcotest.test_case "single window" `Quick test_lazy_single_window;
          Alcotest.test_case "interior mark skipped" `Quick
            test_interior_mark_lazy;
        ] );
    ]
