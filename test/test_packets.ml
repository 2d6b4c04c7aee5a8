(* Tests for the work-packet mechanism: packets, occupancy-classified
   sub-pools, input/output discipline, termination detection, the
   deferred pool, watermarks and CAS accounting. *)

module Machine = Cgc_smp.Machine
module Fence = Cgc_smp.Fence
module Packet = Cgc_packets.Packet
module Pool = Cgc_packets.Pool

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let mk_pool ?(n = 8) ?(capacity = 10) ?fence_on_put ?naive_mark_fence () =
  Pool.create ?fence_on_put ?naive_mark_fence (Machine.testing ())
    ~n_packets:n ~capacity

(* ------------------------------ Packet ------------------------------ *)

let test_packet_lifo () =
  let m = Machine.testing () in
  let p = Packet.make m ~capacity:4 in
  check cb "push 1" true (Packet.push p 11);
  check cb "push 2" true (Packet.push p 22);
  check ci "newest is known before the pop" 22
    (Packet.get_sc p (Packet.count p - 1));
  check (Alcotest.option ci) "pop newest" (Some 22) (Packet.pop p);
  check (Alcotest.option ci) "pop next" (Some 11) (Packet.pop p);
  check (Alcotest.option ci) "pop empty" None (Packet.pop p)

let test_packet_capacity () =
  let m = Machine.testing () in
  let p = Packet.make m ~capacity:3 in
  for i = 1 to 3 do
    check cb "push fits" true (Packet.push p i)
  done;
  check cb "full rejects" false (Packet.push p 4);
  check cb "is_full" true (Packet.is_full p);
  check ci "count" 3 (Packet.count p)

let test_packet_iter () =
  let m = Machine.testing () in
  let p = Packet.make m ~capacity:8 in
  List.iter (fun v -> ignore (Packet.push p v)) [ 1; 2; 3 ];
  let acc = ref [] in
  Packet.iter p (fun v -> acc := v :: !acc);
  check (Alcotest.list ci) "iter order oldest-first" [ 3; 2; 1 ] !acc

(* ------------------------------ Pool ------------------------------ *)

let test_pool_initial_state () =
  let pl = mk_pool () in
  let e, ne, af, d = Pool.counts pl in
  check ci "all empty initially" 8 e;
  check ci "nonempty" 0 ne;
  check ci "almost" 0 af;
  check ci "deferred" 0 d;
  check cb "terminated when untouched" true (Pool.terminated pl)

let test_get_output_prefers_empty () =
  let pl = mk_pool () in
  match Pool.get_output pl with
  | Some p ->
      check cb "got empty packet" true (Packet.is_empty p);
      check cb "no longer terminated (packet held)" false (Pool.terminated pl)
  | None -> Alcotest.fail "no output packet"

let test_no_input_when_all_empty () =
  let pl = mk_pool () in
  check cb "no input available" true (Pool.get_input pl = None)

let test_put_classifies () =
  let pl = mk_pool ~capacity:10 () in
  let take () =
    match Pool.get_output pl with Some p -> p | None -> Alcotest.fail "out"
  in
  let p1 = take () and p2 = take () and p3 = take () in
  (* p1 empty, p2 30% (nonempty), p3 60% (almost full) *)
  for _ = 1 to 3 do
    ignore (Pool.push pl p2 1)
  done;
  for _ = 1 to 6 do
    ignore (Pool.push pl p3 1)
  done;
  Pool.put pl p1;
  Pool.put pl p2;
  Pool.put pl p3;
  let e, ne, af, _ = Pool.counts pl in
  check ci "empties" 6 e;
  check ci "nonempty" 1 ne;
  check ci "almost full" 1 af

let test_get_input_prefers_fullest () =
  let pl = mk_pool ~capacity:10 () in
  let take () =
    match Pool.get_output pl with Some p -> p | None -> Alcotest.fail "out"
  in
  let half = take () and full = take () in
  ignore (Pool.push pl half 1);
  for _ = 1 to 9 do
    ignore (Pool.push pl full 2)
  done;
  Pool.put pl half;
  Pool.put pl full;
  match Pool.get_input pl with
  | Some p -> check ci "fullest first" 9 (Packet.count p)
  | None -> Alcotest.fail "no input"

let test_termination_counter () =
  let pl = mk_pool () in
  let p = match Pool.get_output pl with Some p -> p | None -> assert false in
  check cb "not terminated while held" false (Pool.terminated pl);
  ignore (Pool.push pl p 1);
  Pool.put pl p;
  check cb "not terminated with work" false (Pool.terminated pl);
  (match Pool.get_input pl with
  | Some p ->
      ignore (Pool.pop pl p);
      Pool.put pl p
  | None -> Alcotest.fail "input");
  check cb "terminated after drain" true (Pool.terminated pl)

let test_deferred_pool () =
  let pl = mk_pool () in
  let p = match Pool.get_output pl with Some p -> p | None -> assert false in
  ignore (Pool.push pl p 42);
  Pool.put_deferred pl p;
  check ci "deferred count" 1 (Pool.deferred_count pl);
  check cb "deferred packets block termination" false (Pool.terminated pl);
  check cb "deferred not served as input" true (Pool.get_input pl = None);
  let moved = Pool.recycle_deferred pl in
  check ci "recycled" 1 moved;
  check ci "deferred empty" 0 (Pool.deferred_count pl);
  match Pool.get_input pl with
  | Some p' -> check ci "work available again" 42
      (match Pool.pop pl p' with Some v -> v | None -> -1)
  | None -> Alcotest.fail "recycled packet not offered"

let test_put_fences_nonempty () =
  let pl = mk_pool () in
  let m = Pool.machine pl in
  let p = match Pool.get_output pl with Some p -> p | None -> assert false in
  Pool.put pl p;
  check ci "empty packet returns without fence" 0
    (Fence.get m.Machine.fences Fence.Packet_return);
  let p = match Pool.get_output pl with Some p -> p | None -> assert false in
  ignore (Pool.push pl p 1);
  Pool.put pl p;
  check ci "non-empty packet fenced on return" 1
    (Fence.get m.Machine.fences Fence.Packet_return)

let test_fence_on_put_disabled () =
  let pl = mk_pool ~fence_on_put:false () in
  let m = Pool.machine pl in
  let p = match Pool.get_output pl with Some p -> p | None -> assert false in
  ignore (Pool.push pl p 1);
  Pool.put pl p;
  check ci "no fence when disabled" 0
    (Fence.get m.Machine.fences Fence.Packet_return)

let test_naive_mark_fence () =
  let pl = mk_pool ~naive_mark_fence:true () in
  let m = Pool.machine pl in
  let p = match Pool.get_output pl with Some p -> p | None -> assert false in
  for i = 1 to 5 do
    ignore (Pool.push pl p i)
  done;
  check ci "fence per push" 5 (Fence.get m.Machine.fences Fence.Naive_mark)

let test_watermarks () =
  let pl = mk_pool () in
  let ps =
    List.init 3 (fun _ ->
        match Pool.get_output pl with Some p -> p | None -> assert false)
  in
  check ci "in_use" 3 (Pool.in_use pl);
  check ci "hw in_use" 3 (Pool.max_in_use pl);
  (* leave the first packet empty so it returns to the Empty sub-pool *)
  List.iteri
    (fun i p ->
      for _ = 1 to i do
        ignore (Pool.push pl p 9)
      done)
    ps;
  check ci "entries" 3 (Pool.entries pl);
  check ci "hw entries" 3 (Pool.max_entries pl);
  List.iter (fun p -> Pool.put pl p) ps;
  (* the empty one went back to the Empty sub-pool; two hold work *)
  check ci "in_use drops to the packets holding work" 2 (Pool.in_use pl);
  check ci "hw sticks" 3 (Pool.max_in_use pl)

let test_cas_accounting () =
  let pl = mk_pool () in
  let m = Pool.machine pl in
  let before = m.Machine.cas_ops in
  let p = match Pool.get_output pl with Some p -> p | None -> assert false in
  Pool.put pl p;
  (* one get + one put, two CAS each (list head + counter) *)
  check ci "4 CAS for get+put" (before + 4) m.Machine.cas_ops;
  check ci "ops counted" 1 (Pool.get_ops pl)

let test_get_output_falls_back () =
  (* When only almost-full (but not full) packets remain, get_output
     still returns one. *)
  let pl = mk_pool ~n:2 ~capacity:10 () in
  let a = match Pool.get_output pl with Some p -> p | None -> assert false in
  let b = match Pool.get_output pl with Some p -> p | None -> assert false in
  for _ = 1 to 7 do
    ignore (Pool.push pl a 1);
    ignore (Pool.push pl b 1)
  done;
  Pool.put pl a;
  Pool.put pl b;
  (match Pool.get_output pl with
  | Some p -> check cb "70% packet served as output" true (not (Packet.is_full p))
  | None -> Alcotest.fail "expected fallback output");
  (* totally full packets are not served as output *)
  let pl2 = mk_pool ~n:2 ~capacity:4 () in
  let c = match Pool.get_output pl2 with Some p -> p | None -> assert false in
  let d = match Pool.get_output pl2 with Some p -> p | None -> assert false in
  for _ = 1 to 4 do
    ignore (Pool.push pl2 c 1);
    ignore (Pool.push pl2 d 1)
  done;
  Pool.put pl2 c;
  Pool.put pl2 d;
  check cb "full packets rejected as output" true (Pool.get_output pl2 = None)

(* Property: counters always equal list lengths; total packets conserved. *)
let pool_conservation =
  QCheck.Test.make ~name:"pool conserves packets across random ops" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 5))
    (fun ops ->
      let pl = mk_pool ~n:6 ~capacity:8 () in
      let held = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 -> (
              match Pool.get_input pl with
              | Some p -> held := p :: !held
              | None -> ())
          | 1 -> (
              match Pool.get_output pl with
              | Some p -> held := p :: !held
              | None -> ())
          | 2 -> (
              match !held with
              | p :: rest ->
                  held := rest;
                  Pool.put pl p
              | [] -> ())
          | 3 -> (
              match !held with
              | p :: rest ->
                  held := rest;
                  Pool.put_deferred pl p
              | [] -> ())
          | 4 -> (
              match !held with
              | p :: _ -> ignore (Pool.push pl p 7)
              | [] -> ())
          | _ -> ignore (Pool.recycle_deferred pl))
        ops;
      let e, ne, af, d = Pool.counts pl in
      e + ne + af + d + List.length !held = Pool.total pl)

let () =
  Alcotest.run "packets"
    [
      ( "packet",
        [
          Alcotest.test_case "lifo" `Quick test_packet_lifo;
          Alcotest.test_case "capacity" `Quick test_packet_capacity;
          Alcotest.test_case "iter" `Quick test_packet_iter;
        ] );
      ( "pool",
        [
          Alcotest.test_case "initial state" `Quick test_pool_initial_state;
          Alcotest.test_case "output prefers empty" `Quick
            test_get_output_prefers_empty;
          Alcotest.test_case "no input when all empty" `Quick
            test_no_input_when_all_empty;
          Alcotest.test_case "put classifies" `Quick test_put_classifies;
          Alcotest.test_case "input prefers fullest" `Quick
            test_get_input_prefers_fullest;
          Alcotest.test_case "termination counter" `Quick
            test_termination_counter;
          Alcotest.test_case "deferred pool" `Quick test_deferred_pool;
          Alcotest.test_case "put fences non-empty" `Quick
            test_put_fences_nonempty;
          Alcotest.test_case "fence_on_put disabled" `Quick
            test_fence_on_put_disabled;
          Alcotest.test_case "naive mark fence" `Quick test_naive_mark_fence;
          Alcotest.test_case "watermarks" `Quick test_watermarks;
          Alcotest.test_case "cas accounting" `Quick test_cas_accounting;
          Alcotest.test_case "output fallback" `Quick test_get_output_falls_back;
          QCheck_alcotest.to_alcotest pool_conservation;
        ] );
    ]
