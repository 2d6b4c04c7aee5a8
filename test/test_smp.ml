(* Tests for the simulated SMP substrate: the weak-ordering memory system,
   the machine context (debt charging, fences, CAS accounting) and the
   cost model. *)

module Prng = Cgc_util.Prng
module Weakmem = Cgc_smp.Weakmem
module Machine = Cgc_smp.Machine
module Fence = Cgc_smp.Fence
module Cost = Cgc_smp.Cost

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

(* ------------------------------ Weakmem ------------------------------ *)

let mk_relaxed ?(max_delay = 1000) ?(seed = 1) () =
  Weakmem.create ~max_delay ~mode:Weakmem.Relaxed ~rng:(Prng.create seed) ()

let test_sc_mode_transparent () =
  let wm = Weakmem.create ~mode:Weakmem.Sc ~rng:(Prng.create 1) () in
  let key = Weakmem.register wm 10 in
  Weakmem.store wm ~cpu:0 ~now:0 ~key ~prev:0;
  check ci "sc read returns current" 42
    (Weakmem.read wm ~cpu:1 ~now:0 ~key ~current:42);
  check ci "no pending in SC" 0 (Weakmem.pending_count wm)

let test_own_store_visible () =
  let wm = mk_relaxed () in
  let key = Weakmem.register wm 1 in
  (* cpu 0 stores 1 (prev 0); the backing value is updated by the caller. *)
  Weakmem.store wm ~cpu:0 ~now:0 ~key ~prev:0;
  check ci "own store visible immediately" 1
    (Weakmem.read wm ~cpu:0 ~now:0 ~key ~current:1)

let test_remote_store_masked () =
  let wm = mk_relaxed ~max_delay:10_000 () in
  let key = Weakmem.register wm 1 in
  Weakmem.store wm ~cpu:0 ~now:0 ~key ~prev:7;
  check ci "remote reader sees previous value" 7
    (Weakmem.read wm ~cpu:1 ~now:1 ~key ~current:99)

let test_fence_publishes () =
  let wm = mk_relaxed ~max_delay:10_000 () in
  let key = Weakmem.register wm 1 in
  Weakmem.store wm ~cpu:0 ~now:0 ~key ~prev:7;
  Weakmem.fence wm ~cpu:0 ~now:1;
  check ci "post-fence remote read sees current" 99
    (Weakmem.read wm ~cpu:1 ~now:1 ~key ~current:99);
  check ci "nothing pending" 0 (Weakmem.pending_count wm)

let test_fence_only_own_cpu () =
  let wm = mk_relaxed ~max_delay:10_000 () in
  let k0 = Weakmem.register wm 1 in
  let k1 = Weakmem.register wm 1 in
  Weakmem.store wm ~cpu:0 ~now:0 ~key:k0 ~prev:1;
  Weakmem.store wm ~cpu:2 ~now:0 ~key:k1 ~prev:2;
  Weakmem.fence wm ~cpu:0 ~now:1;
  check ci "cpu0 store drained" 10 (Weakmem.read wm ~cpu:1 ~now:1 ~key:k0 ~current:10);
  check ci "cpu2 store still masked" 2
    (Weakmem.read wm ~cpu:1 ~now:1 ~key:k1 ~current:20)

let test_fence_all () =
  let wm = mk_relaxed ~max_delay:10_000 () in
  let k0 = Weakmem.register wm 1 in
  Weakmem.store wm ~cpu:0 ~now:0 ~key:k0 ~prev:1;
  Weakmem.store wm ~cpu:1 ~now:0 ~key:k0 ~prev:2;
  Weakmem.fence_all wm;
  check ci "pending drained" 0 (Weakmem.pending_count wm)

let test_natural_drain () =
  let wm = mk_relaxed ~max_delay:100 () in
  let key = Weakmem.register wm 1 in
  Weakmem.store wm ~cpu:0 ~now:0 ~key ~prev:7;
  (* after max_delay the store drains on its own *)
  Weakmem.commit_due wm ~now:200;
  check ci "drained by deadline" 99
    (Weakmem.read wm ~cpu:1 ~now:200 ~key ~current:99)

let test_store_store_reordering_occurs () =
  (* Two stores by cpu 0 to different locations can become visible to a
     remote reader in either order: find a seed where the second store
     drains first. *)
  let reordered = ref false in
  (try
     for seed = 1 to 200 do
       let wm = mk_relaxed ~max_delay:10_000 ~seed () in
       let ka = Weakmem.register wm 1 in
       let kb = Weakmem.register wm 1 in
       Weakmem.store wm ~cpu:0 ~now:0 ~key:ka ~prev:0;
       Weakmem.store wm ~cpu:0 ~now:1 ~key:kb ~prev:0;
       (* advance time gradually, checking whether B became visible
          while A is still masked *)
       for t = 2 to 10_000 do
         if t mod 50 = 0 then begin
           let a = Weakmem.read wm ~cpu:1 ~now:t ~key:ka ~current:1 in
           let b = Weakmem.read wm ~cpu:1 ~now:t ~key:kb ~current:1 in
           if b = 1 && a = 0 then begin
             reordered := true;
             raise Exit
           end
         end
       done
     done
   with Exit -> ());
  check cb "store-store reordering observable" true !reordered

let test_per_location_coherence () =
  (* Successive stores to the SAME location must become visible in
     program order: the remote reader must never see the older value
     after having seen the newer one. *)
  for seed = 1 to 50 do
    let wm = mk_relaxed ~max_delay:500 ~seed () in
    let key = Weakmem.register wm 1 in
    (* backing value evolves 0 -> 1 -> 2 *)
    Weakmem.store wm ~cpu:0 ~now:0 ~key ~prev:0;
    (* value now 1 *)
    Weakmem.store wm ~cpu:0 ~now:1 ~key ~prev:1;
    (* value now 2 *)
    let best = ref 0 in
    for t = 2 to 2000 do
      let v = Weakmem.read wm ~cpu:1 ~now:t ~key ~current:2 in
      if v < !best then
        Alcotest.failf "coherence violated: saw %d after %d (seed %d)" v !best
          seed;
      if v > !best then best := v
    done
  done

let test_fenced_store_supersedes_older () =
  (* Regression for a lost-object bug found on the full collector: an
     unfenced store by cpu 0 must stop masking reads once a NEWER store
     to the same location is made globally visible by cpu 1's fence —
     per-location coherence means reads can never go back in time past a
     visible store, regardless of whose buffer the older store sat in. *)
  let wm = mk_relaxed ~max_delay:1_000_000 () in
  let key = Weakmem.register wm 1 in
  (* backing value: 0 -> (cpu0 stores 1) -> (cpu1 stores 2) *)
  Weakmem.store wm ~cpu:0 ~now:0 ~key ~prev:0;
  Weakmem.store wm ~cpu:1 ~now:1 ~key ~prev:1;
  Weakmem.fence wm ~cpu:1 ~now:2;
  check ci "reader sees the fenced value, not the pre-history" 2
    (Weakmem.read wm ~cpu:2 ~now:3 ~key ~current:2);
  check ci "old entry no longer pending" 0 (Weakmem.pending_count wm)

let test_natural_commit_supersedes_older () =
  (* Same property when the newer store drains by deadline instead of by
     an explicit fence. *)
  let wm = mk_relaxed ~max_delay:100 ~seed:5 () in
  let key = Weakmem.register wm 1 in
  Weakmem.store wm ~cpu:0 ~now:0 ~key ~prev:0;
  Weakmem.store wm ~cpu:1 ~now:1 ~key ~prev:1;
  Weakmem.commit_due wm ~now:10_000;
  check ci "everything visible after both deadlines" 2
    (Weakmem.read wm ~cpu:2 ~now:10_000 ~key ~current:2)

let test_register_disjoint () =
  let wm = mk_relaxed () in
  let a = Weakmem.register wm 100 in
  let b = Weakmem.register wm 50 in
  check cb "key ranges disjoint" true (b >= a + 100)

(* ------------------------------ Machine ------------------------------ *)

let test_machine_debt () =
  let m = Machine.testing () in
  Machine.charge m 100;
  Machine.charge m 50;
  check ci "debt accumulates without time passing" 0 (Machine.now m);
  Machine.flush m;
  check ci "flush spends debt" 150 (Machine.now m);
  Machine.flush m;
  check ci "flush idempotent" 150 (Machine.now m)

let test_machine_cas () =
  let m = Machine.testing () in
  Machine.cas m;
  Machine.cas m;
  check ci "cas counted" 2 m.Machine.cas_ops;
  Machine.flush m;
  check ci "cas charged" (2 * m.Machine.cost.Cost.cas) (Machine.now m)

let test_machine_fence_counts () =
  let m = Machine.testing () in
  Machine.fence m Fence.Alloc_batch;
  Machine.fence m Fence.Alloc_batch;
  Machine.fence m Fence.Packet_return;
  check ci "alloc batch fences" 2 (Fence.get m.Machine.fences Fence.Alloc_batch);
  check ci "packet fences" 1 (Fence.get m.Machine.fences Fence.Packet_return);
  check ci "total" 3 (Fence.total m.Machine.fences)

let test_fence_counters_reset () =
  let c = Fence.create () in
  Fence.count c Fence.Naive_mark;
  Fence.reset c;
  check ci "reset" 0 (Fence.total c)

let test_fence_site_names () =
  List.iter
    (fun s -> check cb "non-empty name" true (String.length (Fence.site_name s) > 0))
    Fence.all_sites

(* ------------------------------ Cost ------------------------------ *)

let test_cost_conversions () =
  let c = Cost.default in
  check cb "1ms round trip" true
    (abs_float (Cost.ms_of_cycles c (Cost.cycles_of_ms c 1.0) -. 1.0) < 1e-6);
  check ci "cycles_of_ms" c.Cost.cycles_per_ms (Cost.cycles_of_ms c 1.0)

(* After any schedule of stores, reads and fences, letting every
   deadline pass leaves no store masked: the pending count stays exact
   across fenced and natural drains. *)
let weakmem_no_retention_test =
  QCheck.Test.make ~name:"weakmem: drained buffers retain nothing"
    ~count:200
    QCheck.(
      pair small_nat
        (small_list (quad (int_bound 3) (int_bound 31) (int_bound 40) bool)))
    (fun (seed, ops) ->
      let wm =
        Weakmem.create ~max_delay:30 ~mode:Weakmem.Relaxed
          ~rng:(Prng.create (succ seed)) ()
      in
      let base = Weakmem.register wm 32 in
      let now = ref 0 in
      List.iter
        (fun (cpu, key, dt, do_fence) ->
          now := !now + dt;
          Weakmem.store wm ~cpu ~now:!now ~key:(base + key) ~prev:cpu;
          ignore (Weakmem.read wm ~cpu:(3 - cpu) ~now:!now ~key:(base + key)
                    ~current:(-1));
          if do_fence then Weakmem.fence wm ~cpu ~now:!now)
        ops;
      Weakmem.commit_due wm ~now:(!now + 10_000);
      Weakmem.pending_count wm = 0)

(* A naive reference for [Weakmem]: one flat list of every pending
   store, oldest first.  A store drains when its deadline passes or its
   cpu fences, and with it every older store to the same location.
   Deadlines come from the same PRNG draws, bumped past the location's
   last deadline as [Weakmem.store] specifies.  Each cpu has its own
   clock, so [now] is not monotone across operations. *)
type mstore = { k : int; c : int; dl : int; pv : int }

let weakmem_model_test =
  QCheck.Test.make ~name:"weakmem: matches a flat-list model" ~count:300
    QCheck.(
      pair small_nat
        (list_of_size
           Gen.(0 -- 150)
           (quad (int_bound 15) (int_bound 3) (int_bound 7) (int_bound 40))))
    (fun (seed, ops) ->
      let max_delay = 60 in
      let wm =
        Weakmem.create ~max_delay ~mode:Weakmem.Relaxed
          ~rng:(Prng.create seed) ()
      in
      let rng = Prng.create seed in
      let base = Weakmem.register wm 8 in
      let clocks = Array.make 4 0 and last = Array.make 8 min_int in
      let pending = ref [] in
      (* Drain the newest store per location that [p] accepts, and every
         older store to that location. *)
      let drain p =
        let cut = Array.make 8 (-1) in
        List.iteri (fun i s -> if p s then cut.(s.k) <- i) !pending;
        pending := List.filteri (fun i s -> i > cut.(s.k)) !pending
      in
      List.iteri
        (fun i (op, c, k, dt) ->
          clocks.(c) <- clocks.(c) + dt;
          let now = clocks.(c) in
          if op <= 6 then begin
            let d = now + 1 + Prng.int rng max_delay in
            let d = if last.(k) >= d then last.(k) + 1 else d in
            last.(k) <- d;
            pending := !pending @ [ { k; c; dl = d; pv = i } ];
            Weakmem.store wm ~cpu:c ~now ~key:(base + k) ~prev:i
          end
          else if op <= 10 then begin
            drain (fun s -> s.dl <= now);
            let want =
              match List.filter (fun s -> s.k = k) !pending with
              | [] -> -1
              | oldest :: _ as l ->
                  if (List.nth l (List.length l - 1)).c = c || oldest.c = c
                  then -1
                  else oldest.pv
            in
            let got = Weakmem.read wm ~cpu:c ~now ~key:(base + k) ~current:(-1) in
            if got <> want then
              QCheck.Test.fail_reportf "op %d: cpu %d reads key %d as %d, \
                                        model %d" i c k got want
          end
          else if op <= 12 then begin
            drain (fun s -> s.c = c);
            Weakmem.fence wm ~cpu:c ~now
          end
          else if op <= 14 then begin
            drain (fun s -> s.dl <= now);
            Weakmem.commit_due wm ~now
          end
          else begin
            pending := [];
            Weakmem.fence_all wm
          end;
          if Weakmem.pending_count wm <> List.length !pending then
            QCheck.Test.fail_reportf "op %d: %d pending, model %d" i
              (Weakmem.pending_count wm) (List.length !pending))
        ops;
      true)

let test_read_after_drain () =
  (* The [live = 0] fast path must behave exactly like the slow path:
     once every pending store has drained, reads return the backing
     value for every cpu. *)
  let wm = mk_relaxed ~max_delay:10 ~seed:3 () in
  let key = Weakmem.register wm 1 in
  Weakmem.store wm ~cpu:0 ~now:0 ~key ~prev:5;
  Weakmem.fence wm ~cpu:0 ~now:1;
  check ci "no pending" 0 (Weakmem.pending_count wm);
  check ci "own cpu" 9 (Weakmem.read wm ~cpu:0 ~now:2 ~key ~current:9);
  check ci "remote cpu" 9 (Weakmem.read wm ~cpu:1 ~now:2 ~key ~current:9)

let () =
  Alcotest.run "smp"
    [
      ( "weakmem",
        [
          QCheck_alcotest.to_alcotest weakmem_no_retention_test;
          QCheck_alcotest.to_alcotest weakmem_model_test;
          Alcotest.test_case "read fast path when drained" `Quick
            test_read_after_drain;
          Alcotest.test_case "sc transparent" `Quick test_sc_mode_transparent;
          Alcotest.test_case "own store visible" `Quick test_own_store_visible;
          Alcotest.test_case "remote store masked" `Quick test_remote_store_masked;
          Alcotest.test_case "fence publishes" `Quick test_fence_publishes;
          Alcotest.test_case "fence per-cpu" `Quick test_fence_only_own_cpu;
          Alcotest.test_case "fence_all" `Quick test_fence_all;
          Alcotest.test_case "natural drain" `Quick test_natural_drain;
          Alcotest.test_case "store-store reordering" `Quick
            test_store_store_reordering_occurs;
          Alcotest.test_case "per-location coherence" `Quick
            test_per_location_coherence;
          Alcotest.test_case "fenced store supersedes older (regression)"
            `Quick test_fenced_store_supersedes_older;
          Alcotest.test_case "natural commit supersedes older" `Quick
            test_natural_commit_supersedes_older;
          Alcotest.test_case "register disjoint" `Quick test_register_disjoint;
        ] );
      ( "machine",
        [
          Alcotest.test_case "debt/flush" `Quick test_machine_debt;
          Alcotest.test_case "cas accounting" `Quick test_machine_cas;
          Alcotest.test_case "fence counting" `Quick test_machine_fence_counts;
          Alcotest.test_case "fence reset" `Quick test_fence_counters_reset;
          Alcotest.test_case "fence site names" `Quick test_fence_site_names;
        ] );
      ("cost", [ Alcotest.test_case "conversions" `Quick test_cost_conversions ]);
    ]
