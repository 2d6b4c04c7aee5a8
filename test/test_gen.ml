(* Tests for the generational front end (lib/gen): nursery carving,
   the old->young remembered set, minor collections, pinning, QCheck
   models of the bump allocator and survivor evacuation, and
   three-mode end-to-end soundness at equal heap budgets. *)

module Machine = Cgc_smp.Machine
module Heap = Cgc_heap.Heap
module Arena = Cgc_heap.Arena
module Alloc_bits = Cgc_heap.Alloc_bits
module Card_table = Cgc_heap.Card_table
module Config = Cgc_core.Config
module Collector = Cgc_core.Collector
module Gstats = Cgc_core.Gstats
module Gen = Cgc_gen.Gen
module Vm = Cgc_runtime.Vm
module Mutator = Cgc_runtime.Mutator

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let gen_vm ?(heap_mb = 2.0) ?(ncpus = 2) ?(seed = 1) ?(verify = false) () =
  let gc = { Config.gen with Config.verify } in
  Vm.create (Vm.config ~heap_mb ~ncpus ~seed ~gc ())

let the_gen vm =
  match Vm.gen vm with
  | Some g -> g
  | None -> Alcotest.fail "gen mode VM has no generational front end"

(* ------------------------------------------------------------------ *)
(* Unit: carving and geometry                                          *)

let test_nursery_carved () =
  let vm = gen_vm () in
  let g = the_gen vm in
  let heap = Vm.heap vm in
  check cb "nursery is a top slice" true
    (Gen.n_lo g > 0 && Gen.n_hi g = Heap.nslots heap);
  check ci "old_limit is the nursery base" (Gen.n_lo g)
    (Collector.old_limit (Vm.collector vm));
  (* nursery_fraction of the heap, rounded down to a card boundary *)
  let slots = Gen.n_hi g - Gen.n_lo g in
  let want =
    int_of_float
      (float_of_int (Heap.nslots heap) *. Gen.nursery_fraction)
  in
  check cb "close to the configured fraction" true
    (slots <= want && want - slots < 1024);
  check cb "nothing used yet" true (Gen.nursery_used g = 0.0)

let test_mode_guards () =
  let bad cfg =
    match Vm.create (Vm.config ~heap_mb:2.0 ~gc:cfg ()) with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check cb "gen + compaction rejected" true
    (bad { Config.gen with Config.compaction = true });
  check cb "gen + lazy sweep rejected" true
    (bad { Config.gen with Config.lazy_sweep = true });
  check cb "plain gen accepted" false (bad Config.gen)

(* ------------------------------------------------------------------ *)
(* Unit: the extended write barrier and the remembered set             *)

let test_barrier_dirties_old_to_young () =
  let vm = gen_vm () in
  let g = the_gen vm in
  let seen = ref [] in
  Vm.spawn_mutator vm ~name:"w" (fun m ->
      (* A large allocation bypasses the nursery: old space. *)
      let old_parent = Mutator.alloc m ~nrefs:2 ~size:200 in
      let young = Mutator.alloc m ~nrefs:0 ~size:4 in
      let old_peer = Mutator.alloc m ~nrefs:0 ~size:200 in
      Mutator.root_set m 0 old_parent;
      Mutator.root_set m 1 young;
      (* old -> old: no young card *)
      Mutator.set_ref m old_parent 1 old_peer;
      let clean_after_old_store =
        not (Card_table.is_dirty (Gen.young g) (Arena.card_of_addr old_parent))
      in
      (* old -> young: the parent's young card must dirty *)
      Mutator.set_ref m old_parent 0 young;
      let dirty_after_young_store =
        Card_table.is_dirty (Gen.young g) (Arena.card_of_addr old_parent)
      in
      seen :=
        [ ("parent is old", old_parent < Gen.n_lo g);
          ("young is in the nursery", young >= Gen.n_lo g);
          ("old->old store leaves the young card clean", clean_after_old_store);
          ("old->young store dirties the parent's card", dirty_after_young_store);
        ]);
  Vm.run vm ~ms:50.0;
  check cb "mutator ran" true (!seen <> []);
  List.iter (fun (what, ok) -> check cb what true ok) !seen

let test_minor_preserves_remembered_edge () =
  let vm = gen_vm ~verify:true () in
  let g = the_gen vm in
  let nursery = Gen.n_hi g - Gen.n_lo g in
  let arena = Heap.arena (Vm.heap vm) in
  let parent_ref = ref 0 in
  Vm.spawn_mutator vm ~name:"w" (fun m ->
      let parent = Mutator.alloc m ~nrefs:1 ~size:200 in
      Mutator.root_set m 0 parent;
      parent_ref := parent;
      let young = Mutator.alloc m ~nrefs:0 ~size:6 in
      Mutator.set_ref m parent 0 young;
      (* Exhaust the nursery with garbage; the minor must evacuate the
         remembered-set referent, not reclaim it. *)
      let st = Vm.gc_stats vm in
      let n = ref 0 in
      while st.Gstats.minors < 2 && !n < nursery do
        ignore (Mutator.alloc m ~nrefs:0 ~size:16);
        incr n;
        if !n mod 64 = 0 then Mutator.tx_done m
      done);
  Vm.run vm ~ms:4000.0;
  let st = Vm.gc_stats vm in
  check cb "minors ran" true (st.Gstats.minors >= 2);
  let child = Arena.ref_get_sc arena !parent_ref 0 in
  check cb "referent promoted to the old space" true
    (child > 0 && child < Gen.n_lo g);
  check cb "promoted copy has a valid header" true
    (Arena.header_valid_sc arena child);
  check ci "promoted copy keeps its size" 6 (Arena.size_of_sc arena child)

let test_pinned_survivor_stays_then_leaves () =
  let vm = gen_vm ~verify:true () in
  let g = the_gen vm in
  let nursery = Gen.n_hi g - Gen.n_lo g in
  let pinned_addr = ref 0 in
  let addr_after_minor = ref 0 in
  let pinned_count = ref (-1) in
  Vm.spawn_mutator vm ~name:"w" (fun m ->
      let obj = Mutator.alloc m ~nrefs:0 ~size:8 in
      Mutator.root_set m 0 obj;
      pinned_addr := obj;
      let st = Vm.gc_stats vm in
      let n = ref 0 in
      while st.Gstats.minors < 1 && !n < nursery do
        ignore (Mutator.alloc m ~nrefs:0 ~size:16);
        incr n;
        if !n mod 64 = 0 then Mutator.tx_done m
      done;
      (* Rooted at minor time: the object must not have moved. *)
      addr_after_minor := Mutator.root_get m 0;
      pinned_count := Gen.pinned_slots g;
      (* Drop the root; the next minor evacuates or reclaims it. *)
      Mutator.root_set m 0 0;
      let target = st.Gstats.minors + 1 in
      n := 0;
      while st.Gstats.minors < target && !n < nursery do
        ignore (Mutator.alloc m ~nrefs:0 ~size:16);
        incr n;
        if !n mod 64 = 0 then Mutator.tx_done m
      done);
  Vm.run vm ~ms:4000.0;
  check cb "object was rooted in the nursery" true (!pinned_addr >= Gen.n_lo g);
  check ci "rooted young object did not move" !pinned_addr !addr_after_minor;
  check cb "minor reported pinned slots" true (!pinned_count >= 8);
  (* After the unrooted minor, nothing keeps it pinned. *)
  check ci "no pins remain" 0 (Gen.pinned_slots g)

(* ------------------------------------------------------------------ *)
(* QCheck: bump-allocator model                                        *)

(* Small allocations from a gen-mode mutator are nursery bump
   allocations: every extent lies inside [n_lo, n_hi), extents are
   pairwise disjoint, and (single mutator, no minor in between)
   addresses are strictly increasing. *)
let bump_model =
  QCheck.Test.make ~name:"nursery bump allocation matches model" ~count:30
    QCheck.(list_of_size (Gen.int_range 5 60) (int_range 2 24))
    (fun sizes ->
      let vm = gen_vm ~heap_mb:4.0 () in
      let g = the_gen vm in
      let out = ref [] in
      Vm.spawn_mutator vm ~name:"w" (fun m ->
          out :=
            List.map (fun size -> (Mutator.alloc m ~nrefs:0 ~size, size)) sizes);
      Vm.run vm ~ms:100.0;
      let allocs = !out in
      let st = Vm.gc_stats vm in
      if st.Gstats.minors <> 0 then
        QCheck.Test.fail_report "minor ran under a tiny allocation load";
      List.iter
        (fun (a, s) ->
          if a < Gen.n_lo g || a + s > Gen.n_hi g then
            QCheck.Test.fail_reportf "extent [%d,%d) outside nursery [%d,%d)"
              a (a + s) (Gen.n_lo g) (Gen.n_hi g))
        allocs;
      let rec disjoint = function
        | (a, s) :: ((b, _) :: _ as rest) ->
            if a + s > b then
              QCheck.Test.fail_reportf "extents overlap: [%d,%d) then %d" a
                (a + s) b;
            disjoint rest
        | _ -> true
      in
      disjoint allocs)

(* Allocating more than the nursery holds must trigger minors — the
   refill hook's exhaustion path — and the heap must stay consistent
   (verifier on). *)
let exhaustion_model =
  QCheck.Test.make ~name:"nursery exhaustion triggers minors" ~count:10
    QCheck.(int_range 8 24)
    (fun size ->
      let vm = gen_vm ~heap_mb:2.0 ~verify:true () in
      let g = the_gen vm in
      let nursery = Gen.n_hi g - Gen.n_lo g in
      let n_allocs = (2 * nursery / size) + 8 in
      Vm.spawn_mutator vm ~name:"w" (fun m ->
          for i = 1 to n_allocs do
            ignore (Mutator.alloc m ~nrefs:0 ~size);
            if i mod 64 = 0 then Mutator.tx_done m
          done);
      Vm.run vm ~ms:4000.0;
      let st = Vm.gc_stats vm in
      if st.Gstats.minors + st.Gstats.minor_deferred < 1 then
        QCheck.Test.fail_reportf
          "allocated %d slots through a %d-slot nursery without a minor"
          (n_allocs * size) nursery;
      true)

(* ------------------------------------------------------------------ *)
(* QCheck: survivor evacuation preserves the object graph              *)

(* Walk a graph depth-first from a root, assigning discovery indices;
   the signature is one (nrefs, child discovery indices) row per node
   in discovery order.  Two isomorphic graphs produce equal
   signatures. *)
let signature ~nrefs_of ~child root =
  let index = Hashtbl.create 32 in
  let rows = ref [] in
  let rec walk v =
    if not (Hashtbl.mem index v) then begin
      Hashtbl.add index v (Hashtbl.length index);
      let n = nrefs_of v in
      let kids = List.init n (child v) in
      List.iter walk kids;
      rows := (n, List.map (Hashtbl.find index) kids) :: !rows
    end
  in
  walk root;
  List.rev !rows

let evacuation_model =
  QCheck.Test.make ~name:"evacuation preserves the object graph" ~count:20
    QCheck.(pair (int_range 2 18) (int_range 0 1_000_000))
    (fun (n, seed) ->
      (* A random connected graph: node i>0 hangs off a random earlier
         node (spanning tree), plus a few extra edges — back, forward
         and self edges all allowed, so evacuation sees cycles. *)
      let rng = Random.State.make [| seed; n |] in
      let adj = Array.make n [] in
      for i = 1 to n - 1 do
        let p = Random.State.int rng i in
        adj.(p) <- adj.(p) @ [ i ]
      done;
      for _ = 1 to n / 2 do
        let a = Random.State.int rng n and b = Random.State.int rng n in
        adj.(a) <- adj.(a) @ [ b ]
      done;
      let vm = gen_vm ~heap_mb:2.0 ~verify:true () in
      let g = the_gen vm in
      let nursery = Gen.n_hi g - Gen.n_lo g in
      let arena = Heap.arena (Vm.heap vm) in
      let before = ref [] in
      let root_addr = ref 0 in
      Vm.spawn_mutator vm ~name:"w" (fun m ->
          let addrs =
            Array.init n (fun i ->
                let nrefs = List.length adj.(i) in
                Mutator.alloc m ~nrefs ~size:(1 + nrefs + (i mod 3)))
          in
          Array.iteri
            (fun i kids ->
              List.iteri (fun slot j -> Mutator.set_ref m addrs.(i) slot addrs.(j)) kids)
            adj;
          Mutator.root_set m 0 addrs.(0);
          root_addr := addrs.(0);
          before :=
            signature
              ~nrefs_of:(fun v -> Arena.nrefs_of_sc arena v)
              ~child:(fun v i -> Arena.ref_get_sc arena v i)
              addrs.(0);
          (* Now drown the graph in garbage: at least two minors, so the
             graph is evacuated (and the pinned root rescanned). *)
          let st = Vm.gc_stats vm in
          let k = ref 0 in
          while st.Gstats.minors < 2 && !k < 2 * nursery do
            ignore (Mutator.alloc m ~nrefs:0 ~size:16);
            incr k;
            if !k mod 64 = 0 then Mutator.tx_done m
          done);
      Vm.run vm ~ms:4000.0;
      let st = Vm.gc_stats vm in
      if st.Gstats.minors < 2 then
        QCheck.Test.fail_report "garbage churn did not reach two minors";
      let after =
        signature
          ~nrefs_of:(fun v -> Arena.nrefs_of_sc arena v)
          ~child:(fun v i -> Arena.ref_get_sc arena v i)
          !root_addr
      in
      if !before <> after then
        QCheck.Test.fail_reportf
          "object graph changed across evacuation: %d rows before, %d after"
          (List.length !before) (List.length after);
      true)

(* ------------------------------------------------------------------ *)
(* End-to-end: the three collectors at equal heap budgets              *)

let churn ms vm =
  Vm.spawn_mutator vm ~name:"churn" (fun m ->
      let module Objgraph = Cgc_workloads.Objgraph in
      let head = ref (Objgraph.build_list m ~len:300 ~node_slots:8) in
      Mutator.root_set m 0 !head;
      while not (Mutator.stopped m) do
        for _ = 1 to 8 do
          ignore (Mutator.alloc m ~nrefs:0 ~size:8)
        done;
        let tail = Mutator.get_ref m !head 0 in
        let fresh = Mutator.alloc m ~nrefs:1 ~size:8 in
        Mutator.set_ref m fresh 0 tail;
        head := fresh;
        Mutator.root_set m 0 fresh;
        Mutator.work m 4_000;
        Mutator.tx_done m
      done);
  Vm.run vm ~ms

let test_three_modes_equal_budget () =
  let run gc =
    let vm =
      Vm.create
        (Vm.config ~heap_mb:2.0 ~ncpus:2 ~seed:7
           ~gc:{ gc with Config.verify = true } ())
    in
    churn 500.0 vm;
    vm
  in
  let stw = run Config.stw
  and cgc = run Config.default
  and gen = run Config.gen in
  List.iter
    (fun (name, vm) ->
      check cb (name ^ " made progress") true (Vm.total_transactions vm > 100);
      check (Alcotest.list (Alcotest.pair ci ci)) (name ^ " heap intact") []
        (Collector.check_reachable (Vm.collector vm)))
    [ ("stw", stw); ("cgc", cgc); ("gen", gen) ];
  let gst = Vm.gc_stats gen in
  check cb "gen ran minors" true (gst.Gstats.minors > 0);
  check cb "gen promoted survivors" true (gst.Gstats.promoted_slots > 0)

let test_gen_deterministic () =
  let once () =
    let vm = gen_vm ~heap_mb:2.0 ~seed:42 () in
    churn 400.0 vm;
    let st = Vm.gc_stats vm in
    ( Vm.total_transactions vm,
      st.Gstats.minors,
      st.Gstats.promoted_slots,
      Cgc_util.Histogram.sum st.Gstats.minor_pause_ms )
  in
  let t1, m1, p1, s1 = once () in
  let t2, m2, p2, s2 = once () in
  check ci "transactions equal" t1 t2;
  check ci "minors equal" m1 m2;
  check ci "promoted slots equal" p1 p2;
  check (Alcotest.float 0.0) "minor pause totals equal" s1 s2

let () =
  Alcotest.run "gen"
    [
      ( "unit",
        [
          Alcotest.test_case "nursery carved" `Quick test_nursery_carved;
          Alcotest.test_case "mode guards" `Quick test_mode_guards;
          Alcotest.test_case "barrier dirties old->young" `Quick
            test_barrier_dirties_old_to_young;
          Alcotest.test_case "minor preserves remembered edge" `Quick
            test_minor_preserves_remembered_edge;
          Alcotest.test_case "pinned survivor stays then leaves" `Quick
            test_pinned_survivor_stays_then_leaves;
        ] );
      ( "model",
        [
          QCheck_alcotest.to_alcotest bump_model;
          QCheck_alcotest.to_alcotest exhaustion_model;
          QCheck_alcotest.to_alcotest evacuation_model;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "three modes, equal budget" `Slow
            test_three_modes_equal_budget;
          Alcotest.test_case "gen runs deterministic" `Slow
            test_gen_deterministic;
        ] );
    ]
