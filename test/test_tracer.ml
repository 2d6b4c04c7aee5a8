(* Tests for the tracing engine: exact reachability marking, conservative
   root filtering, the deferred-object (section 5.2) machinery, output
   replacement, input/output recirculation and overflow handling. *)

module Machine = Cgc_smp.Machine
module Heap = Cgc_heap.Heap
module Arena = Cgc_heap.Arena
module Alloc_bits = Cgc_heap.Alloc_bits
module Card_table = Cgc_heap.Card_table
module Pool = Cgc_packets.Pool
module Config = Cgc_core.Config
module Tracer = Cgc_core.Tracer

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

type env = { heap : Heap.t; pool : Pool.t; tracer : Tracer.t }

let mk ?(nslots = 65536) ?(n_packets = 16) ?(capacity = 8)
    ?(defer_protocol = true) () =
  let mach = Machine.testing () in
  let heap = Heap.create mach ~nslots in
  let pool = Pool.create mach ~n_packets ~capacity in
  let cfg = { Config.default with Config.defer_protocol } in
  { heap; pool; tracer = Tracer.create cfg heap pool }

(* Allocate a published object (allocation bit set immediately). *)
let obj env ~nrefs ~size =
  match Heap.alloc_large env.heap ~size ~nrefs ~mark_new:false with
  | Some a -> a
  | None -> Alcotest.fail "allocation failed"

let link env parent i child =
  Arena.ref_set_raw (Heap.arena env.heap) parent i child

(* Trace from the given roots to fixpoint. *)
let trace_all env roots =
  let s = Tracer.new_session env.tracer in
  List.iter (fun r -> Tracer.push_obj env.tracer s r) roots;
  let rec go () =
    let n = Tracer.trace_until env.tracer s ~budget:max_int in
    if n > 0 then go ()
  in
  go ();
  Tracer.release env.tracer s;
  (* recycle any deferred packets and finish *)
  while Pool.deferred_count env.pool > 0 do
    ignore (Pool.recycle_deferred env.pool);
    let s = Tracer.new_session env.tracer in
    let rec go () =
      let n = Tracer.trace_until env.tracer s ~budget:max_int in
      if n > 0 then go ()
    in
    go ();
    Tracer.release env.tracer s
  done

let test_marks_reachable_graph () =
  let env = mk () in
  (* diamond: a -> b, c; b -> d; c -> d; plus unreachable e *)
  let a = obj env ~nrefs:2 ~size:4 in
  let b = obj env ~nrefs:1 ~size:4 in
  let c = obj env ~nrefs:1 ~size:4 in
  let d = obj env ~nrefs:0 ~size:4 in
  let e = obj env ~nrefs:0 ~size:4 in
  link env a 0 b;
  link env a 1 c;
  link env b 0 d;
  link env c 0 d;
  trace_all env [ a ];
  List.iter
    (fun x -> check cb "reachable marked" true (Heap.is_marked env.heap x))
    [ a; b; c; d ];
  check cb "unreachable unmarked" false (Heap.is_marked env.heap e);
  check cb "pool terminated after trace" true (Pool.terminated env.pool)

let test_cycle_terminates () =
  let env = mk () in
  let a = obj env ~nrefs:1 ~size:4 in
  let b = obj env ~nrefs:1 ~size:4 in
  link env a 0 b;
  link env b 0 a;
  trace_all env [ a ];
  check cb "a marked" true (Heap.is_marked env.heap a);
  check cb "b marked" true (Heap.is_marked env.heap b)

let test_long_chain_recirculates () =
  (* A list far longer than one packet forces output replacement and the
     output->input recirculation path. *)
  let env = mk ~capacity:4 ~n_packets:4 () in
  let n = 500 in
  let nodes = Array.init n (fun _ -> obj env ~nrefs:1 ~size:3) in
  for i = 0 to n - 2 do
    link env nodes.(i) 0 nodes.(i + 1)
  done;
  trace_all env [ nodes.(0) ];
  Array.iter
    (fun x -> check cb "chain fully marked" true (Heap.is_marked env.heap x))
    nodes

let test_wide_fanout_overflow () =
  (* A root with many children and a tiny pool forces the overflow path:
     children still get marked, and the overflow dirties cards. *)
  let env = mk ~capacity:4 ~n_packets:3 () in
  let fan = 64 in
  let root = obj env ~nrefs:fan ~size:(fan + 1) in
  let kids = Array.init fan (fun _ -> obj env ~nrefs:0 ~size:3) in
  Array.iteri (fun i k -> link env root i k) kids;
  trace_all env [ root ];
  Array.iter
    (fun k -> check cb "kid marked despite overflow" true (Heap.is_marked env.heap k))
    kids;
  if Tracer.overflow_events env.tracer > 0 then
    check cb "overflow dirtied cards" true
      (Card_table.dirty_count (Heap.cards env.heap) > 0)

let test_marked_volume () =
  let env = mk () in
  let a = obj env ~nrefs:1 ~size:10 in
  let b = obj env ~nrefs:0 ~size:20 in
  link env a 0 b;
  trace_all env [ a ];
  check ci "volume = sum of sizes" 30 (Tracer.marked_slots env.tracer);
  Tracer.reset_cycle env.tracer;
  check ci "reset" 0 (Tracer.marked_slots env.tracer)

let test_push_root_conservative () =
  let env = mk () in
  let a = obj env ~nrefs:0 ~size:4 in
  let s = Tracer.new_session env.tracer in
  check cb "valid root pushed" true (Tracer.push_root env.tracer s a);
  check cb "duplicate not pushed" false (Tracer.push_root env.tracer s a);
  check cb "null rejected" false (Tracer.push_root env.tracer s 0);
  check cb "out of range rejected" false
    (Tracer.push_root env.tracer s 1_000_000);
  (* interior pointer: no allocation bit at that slot *)
  check cb "interior pointer rejected" false (Tracer.push_root env.tracer s (a + 1));
  Tracer.release env.tracer s

let test_scan_roots_array () =
  let env = mk () in
  let a = obj env ~nrefs:0 ~size:4 in
  let b = obj env ~nrefs:0 ~size:4 in
  let roots = [| 0; a; 12345678; b; -3; a |] in
  let s = Tracer.new_session env.tracer in
  let pushed = Tracer.scan_roots env.tracer s roots in
  Tracer.release env.tracer s;
  check ci "two valid roots" 2 pushed

let test_unsafe_objects_deferred () =
  (* An object whose allocation bit is not yet set must not be traced;
     it goes to the Deferred pool and is traced after publication. *)
  let env = mk () in
  let a = obj env ~nrefs:1 ~size:4 in
  (* craft an unpublished object by writing its header manually *)
  let unpub = 30_000 in
  Arena.write_header (Heap.arena env.heap) unpub ~size:6 ~nrefs:0;
  link env a 0 unpub;
  let s = Tracer.new_session env.tracer in
  Tracer.push_obj env.tracer s a;
  let rec drain () =
    if Tracer.trace_until env.tracer s ~budget:max_int > 0 then drain ()
  in
  drain ();
  Tracer.release env.tracer s;
  check cb "unsafe object marked but deferred" true
    (Heap.is_marked env.heap unpub);
  check ci "one deferred packet" 1 (Pool.deferred_count env.pool);
  (* marked volume must not include the unscanned object *)
  check ci "unsafe not counted as traced" 4 (Tracer.marked_slots env.tracer);
  (* now publish and recycle: it gets traced *)
  Alloc_bits.set (Heap.alloc_bits env.heap) unpub;
  ignore (Pool.recycle_deferred env.pool);
  let s = Tracer.new_session env.tracer in
  let rec drain () =
    if Tracer.trace_until env.tracer s ~budget:max_int > 0 then drain ()
  in
  drain ();
  Tracer.release env.tracer s;
  check ci "traced after publication" 10 (Tracer.marked_slots env.tracer);
  check cb "terminated" true (Pool.terminated env.pool)

let test_defer_fence_counted () =
  let env = mk () in
  let a = obj env ~nrefs:0 ~size:4 in
  trace_all env [ a ];
  let m = Heap.machine env.heap in
  check cb "tracer-side fence executed" true
    (Cgc_smp.Fence.get m.Machine.fences Cgc_smp.Fence.Packet_defer >= 1)

let test_budget_respected () =
  let env = mk () in
  let n = 100 in
  let nodes = Array.init n (fun _ -> obj env ~nrefs:1 ~size:10) in
  for i = 0 to n - 2 do
    link env nodes.(i) 0 nodes.(i + 1)
  done;
  let s = Tracer.new_session env.tracer in
  Tracer.push_obj env.tracer s nodes.(0);
  let traced = Tracer.trace_until env.tracer s ~budget:50 in
  Tracer.release env.tracer s;
  check cb "stopped near budget" true (traced >= 50 && traced < 100)

let test_confiscation () =
  let env = mk () in
  let a = obj env ~nrefs:1 ~size:4 in
  let b = obj env ~nrefs:0 ~size:4 in
  link env a 0 b;
  let s = Tracer.new_session env.tracer in
  Tracer.push_obj env.tracer s a;
  (* the session holds a non-empty output: not terminated *)
  check cb "not terminated while held" false (Pool.terminated env.pool);
  Tracer.confiscate_all env.tracer;
  check cb "stolen flag" true (Tracer.stolen s);
  (* all packets are accounted for in the sub-pools again *)
  let e, ne, af, d = Pool.counts env.pool in
  check ci "packets back in pool" (Pool.total env.pool) (e + ne + af + d);
  (* stolen sessions do no further work *)
  check ci "no tracing on stolen session" 0
    (Tracer.trace_until env.tracer s ~budget:max_int);
  Tracer.release env.tracer s;
  (* a fresh session can finish the work the confiscated one left *)
  trace_all env [];
  check cb "b eventually marked" true (Heap.is_marked env.heap b)

let test_corruption_detection_disabled_protocol () =
  (* With the section 5.2 protocol disabled, tracing an unpublished object
     whose header slot holds garbage is detected as a corruption. *)
  let env = mk ~defer_protocol:false () in
  let a = obj env ~nrefs:1 ~size:4 in
  let junk = 40_000 in
  (* no header written: slot is zero, which is an invalid header *)
  link env a 0 junk;
  trace_all env [ a ];
  check cb "corruption observed without the protocol" true
    (Tracer.corruptions env.tracer > 0)

(* The drain loop prefetches the two cache lines from the header of the
   entry a fixed distance below the one it pops, guarded by
   [Arena.in_heap]; the stub requests the second line only when it lies
   inside the arena's bytes.  Here the bottom of the input packet holds
   out-of-heap junk and null, which the guard skips, and the entries
   above them include objects at the heap's first, last and last-but-one
   slots, which it lets through (the last two have no second line), and
   objects of 6 and 9 slots with 4 and 8 references, whose children the
   scan pushes.  Their headers sit at every slot offset of an 8-slot
   line, so whatever the arena's alignment, some have their header at
   offset 5-7 of a cache line and their references in the next one.  The budget stops the drain before the junk is
   popped (the scan itself never sees it), so the bottom entries reach
   only the prefetch.  A prefetch cannot fault, so this cannot tell a
   missing guard; it checks that the hint changes nothing: the traced
   volume and counters equal scanning the same objects with
   [scan_object], which prefetches nothing, under SC and Relaxed memory
   alike. *)
let test_prefetch_guard () =
  let nslots = 4096 in
  (* (address, size, nrefs), bottom of the packet first.  Three junk
     entries, then the three boundary objects, the nine with references,
     and 18 more: for any prefetch distance from 4 to 19 the prefetched
     entries cover all of the bottom fifteen. *)
  let objs =
    [ (1, 3, 0); (nslots - 1, 1, 0); (nslots - 2, 1, 0) ]
    @ List.init 8 (fun j -> ((8 * (40 + (2 * j))) + j, 6, 4))
    @ [ ((8 * 58) + 7, 9, 8) ]
    @ List.init 18 (fun k -> (100 + (10 * k), 1 + (k mod 5), 0))
  in
  let junk = [ nslots; -3; 0 ] in
  let budget = List.fold_left (fun acc (_, size, _) -> acc + size) 0 objs in
  let nchildren = List.fold_left (fun acc (_, _, n) -> acc + n) 0 objs in
  let run mode ~hint =
    let mach = Machine.testing ~mode () in
    let heap = Heap.create mach ~nslots in
    let pool = Pool.create mach ~n_packets:4 ~capacity:64 in
    let cfg = { Config.default with Config.defer_protocol = false } in
    let tracer = Tracer.create cfg heap pool in
    let arena = Heap.arena heap in
    let place addr size nrefs =
      Arena.write_header arena addr ~size ~nrefs;
      Alloc_bits.set (Heap.alloc_bits heap) addr
    in
    let next_child = ref 1000 in
    let children = ref [] in
    List.iter
      (fun (a, size, nrefs) ->
        place a size nrefs;
        for i = 0 to nrefs - 1 do
          let c = !next_child in
          next_child := c + 2;
          place c 2 0;
          children := c :: !children;
          Arena.ref_set_raw arena a i c
        done)
      objs;
    let s = Tracer.new_session tracer in
    let traced =
      if hint then begin
        let p = Option.get (Pool.get_output pool) in
        List.iter
          (fun a -> ignore (Pool.push pool p a))
          (junk @ List.map (fun (a, _, _) -> a) objs);
        Pool.put pool p;
        Tracer.trace_until tracer s ~budget
      end
      else
        List.fold_left
          (fun acc (a, _, _) ->
            acc + Tracer.scan_object tracer s ~retrace:false a)
          0 (List.rev objs)
    in
    Tracer.release tracer s;
    ( traced,
      Tracer.marked_slots tracer,
      Tracer.corruptions tracer,
      Tracer.overflow_events tracer,
      (Pool.entries pool - if hint then List.length junk else 0),
      List.length (List.filter (Heap.is_marked heap) !children) )
  in
  let ((traced, marked, corrupt, overflows, pushed, marked_children) as sc) =
    run Cgc_smp.Weakmem.Sc ~hint:true
  in
  check ci "every object traced" budget traced;
  check ci "marked volume" budget marked;
  check ci "no corruption" 0 corrupt;
  check ci "no overflow" 0 overflows;
  check ci "children pushed, junk left unpopped" nchildren pushed;
  check ci "children marked" nchildren marked_children;
  check cb "scan without the hint, SC" true
    (sc = run Cgc_smp.Weakmem.Sc ~hint:false);
  let relaxed = run Cgc_smp.Weakmem.Relaxed ~hint:true in
  check cb "relaxed traces the same" true (sc = relaxed);
  check cb "scan without the hint, Relaxed" true
    (relaxed = run Cgc_smp.Weakmem.Relaxed ~hint:false)

(* Property: the in-place allocation-bit filter (SC memory, batched
   fences) leaves exactly what the per-entry pop and re-push filter
   leaves.  The reference runs the same pool under relaxed memory on one
   CPU, where every read sees the committed value but each packet store
   goes through the store buffer, so the tracer has to pop and push.
   Compared: the entries of every packet handed out, in order, the
   pool's entry count, high-water mark and sub-pool counters, the total
   charge and the fences. *)
let filter_in_place_matches_pop_push =
  (* a packet: whether all its entries are published, and its entries
     with whether each one is *)
  let packet =
    QCheck.(
      pair bool (list_of_size (Gen.int_range 0 8) (pair (int_range 1 255) bool)))
  in
  QCheck.Test.make ~name:"in-place filter matches pop and re-push" ~count:300
    QCheck.(pair (int_range 2 6) (list_of_size (Gen.int_range 1 5) packet))
    (fun (spare, packets) ->
      let run mode =
        let mach = Machine.testing ~mode () in
        let heap = Heap.create mach ~nslots:256 in
        let pool =
          Pool.create mach ~n_packets:(List.length packets + spare) ~capacity:8
        in
        let tracer = Tracer.create Config.default heap pool in
        let abits = Heap.alloc_bits heap in
        List.iter
          (fun (all_safe, entries) ->
            let p = Option.get (Pool.get_output pool) in
            List.iter
              (fun (addr, safe) ->
                if all_safe || safe then Alloc_bits.set abits addr;
                ignore (Pool.push pool p addr))
              entries;
            Pool.put pool p)
          packets;
        let handed = ref [] in
        let rec drain () =
          match Tracer.acquire_input tracer with
          | None -> ()
          | Some p ->
              let es = ref [] in
              Cgc_packets.Packet.iter p (fun v -> es := v :: !es);
              handed := List.rev !es :: !handed;
              drain ()
        in
        drain ();
        Machine.flush mach;
        ( List.rev !handed,
          (Pool.entries pool, Pool.max_entries pool, Pool.counts pool),
          Machine.now mach,
          Cgc_smp.Fence.total mach.Machine.fences )
      in
      run Cgc_smp.Weakmem.Sc = run Cgc_smp.Weakmem.Relaxed)

let () =
  Alcotest.run "tracer"
    [
      ( "tracer",
        [
          Alcotest.test_case "marks reachable graph" `Quick
            test_marks_reachable_graph;
          Alcotest.test_case "cycles terminate" `Quick test_cycle_terminates;
          Alcotest.test_case "long chain recirculates" `Quick
            test_long_chain_recirculates;
          Alcotest.test_case "wide fanout overflow" `Quick
            test_wide_fanout_overflow;
          Alcotest.test_case "marked volume" `Quick test_marked_volume;
          Alcotest.test_case "conservative roots" `Quick
            test_push_root_conservative;
          Alcotest.test_case "scan_roots" `Quick test_scan_roots_array;
          Alcotest.test_case "unsafe deferred (5.2)" `Quick
            test_unsafe_objects_deferred;
          Alcotest.test_case "defer fence counted" `Quick
            test_defer_fence_counted;
          Alcotest.test_case "budget respected" `Quick test_budget_respected;
          Alcotest.test_case "confiscation" `Quick test_confiscation;
          Alcotest.test_case "corruption without protocol" `Quick
            test_corruption_detection_disabled_protocol;
          Alcotest.test_case "prefetch guard" `Quick test_prefetch_guard;
          QCheck_alcotest.to_alcotest filter_in_place_matches_pop_push;
        ] );
    ]
