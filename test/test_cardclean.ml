(* Direct tests of the card-cleaning machinery: the snapshot pass
   protocol, retracing of marked objects on dirty cards, the
   at-most-once-per-pass property, unsafe-object re-dirtying and the
   pass counters used by termination detection. *)

module Machine = Cgc_smp.Machine
module Heap = Cgc_heap.Heap
module Arena = Cgc_heap.Arena
module Alloc_bits = Cgc_heap.Alloc_bits
module Card_table = Cgc_heap.Card_table
module Pool = Cgc_packets.Pool
module Config = Cgc_core.Config
module Tracer = Cgc_core.Tracer
module Card_clean = Cgc_core.Card_clean

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

type env = {
  heap : Heap.t;
  tracer : Tracer.t;
  cleaner : Card_clean.t;
}

let mk () =
  let mach = Machine.testing () in
  let heap = Heap.create mach ~nslots:65536 in
  let pool = Pool.create mach ~n_packets:16 ~capacity:16 in
  let tracer = Tracer.create Config.default heap pool in
  { heap; tracer; cleaner = Card_clean.create heap }

let obj env ~nrefs ~size =
  match Heap.alloc_large env.heap ~size ~nrefs ~mark_new:false with
  | Some a -> a
  | None -> Alcotest.fail "alloc failed"

let drain env =
  let s = Tracer.new_session env.tracer in
  let rec go () =
    if Tracer.trace_until env.tracer s ~budget:max_int > 0 then go ()
  in
  go ();
  Tracer.release env.tracer s

let test_pass_lifecycle () =
  let env = mk () in
  check ci "no passes initially" 0 (Card_clean.passes_started env.cleaner);
  Card_clean.start_pass env.cleaner ~force_fences:(fun () -> ());
  check ci "pass counted" 1 (Card_clean.passes_started env.cleaner);
  check ci "clean table registers nothing" 0 (Card_clean.queue_len env.cleaner);
  Card_clean.reset_cycle env.cleaner;
  check ci "reset" 0 (Card_clean.passes_started env.cleaner)

let test_retraces_marked_on_dirty_card () =
  let env = mk () in
  (* o1 marked and already traced; then a ref to unmarked o2 is stored
     into it and its card dirtied — the cleaning pass must find o2. *)
  let o1 = obj env ~nrefs:1 ~size:8 in
  let o2 = obj env ~nrefs:0 ~size:8 in
  ignore (Heap.mark_test_and_set env.heap o1);
  Arena.ref_set_raw (Heap.arena env.heap) o1 0 o2;
  Card_table.dirty (Heap.cards env.heap) (Arena.card_of_addr o1);
  Card_clean.start_pass env.cleaner ~force_fences:(fun () -> ());
  check ci "one card registered" 1 (Card_clean.queue_len env.cleaner);
  let s = Tracer.new_session env.tracer in
  (match Card_clean.clean_one env.cleaner env.tracer s ~stw:false with
  | Some n -> check cb "rescanned something" true (n >= 8)
  | None -> Alcotest.fail "no card to clean");
  Tracer.release env.tracer s;
  drain env;
  check cb "o2 marked via card cleaning" true (Heap.is_marked env.heap o2);
  check ci "concurrent counter" 1 (Card_clean.conc_cleaned env.cleaner);
  check ci "queue drained" 0 (Card_clean.queue_len env.cleaner)

let test_unmarked_objects_not_retraced () =
  let env = mk () in
  (* a dirty card whose objects are all unmarked produces no work *)
  let o1 = obj env ~nrefs:1 ~size:8 in
  let o2 = obj env ~nrefs:0 ~size:8 in
  Arena.ref_set_raw (Heap.arena env.heap) o1 0 o2;
  Card_table.dirty (Heap.cards env.heap) (Arena.card_of_addr o1);
  Card_clean.start_pass env.cleaner ~force_fences:(fun () -> ());
  let s = Tracer.new_session env.tracer in
  (match Card_clean.clean_one env.cleaner env.tracer s ~stw:false with
  | Some n -> check ci "nothing rescanned" 0 n
  | None -> Alcotest.fail "card expected");
  Tracer.release env.tracer s;
  check cb "o2 stays unmarked" false (Heap.is_marked env.heap o2)

let test_card_cleaned_once_per_pass () =
  let env = mk () in
  let o1 = obj env ~nrefs:0 ~size:8 in
  ignore (Heap.mark_test_and_set env.heap o1);
  Card_table.dirty (Heap.cards env.heap) (Arena.card_of_addr o1);
  Card_clean.start_pass env.cleaner ~force_fences:(fun () -> ());
  let s = Tracer.new_session env.tracer in
  ignore (Card_clean.clean_one env.cleaner env.tracer s ~stw:false);
  check cb "no second cleaning of the same card" true
    (Card_clean.clean_one env.cleaner env.tracer s ~stw:false = None);
  Tracer.release env.tracer s;
  (* a second pass would re-register only if the card is dirty again *)
  Card_clean.start_pass env.cleaner ~force_fences:(fun () -> ());
  check ci "clean card not re-registered" 0 (Card_clean.queue_len env.cleaner)

let test_redirty_again_recleaned () =
  let env = mk () in
  let o1 = obj env ~nrefs:1 ~size:8 in
  ignore (Heap.mark_test_and_set env.heap o1);
  Card_table.dirty (Heap.cards env.heap) (Arena.card_of_addr o1);
  Card_clean.start_pass env.cleaner ~force_fences:(fun () -> ());
  let s = Tracer.new_session env.tracer in
  ignore (Card_clean.clean_one env.cleaner env.tracer s ~stw:false);
  (* mutator dirties it again after cleaning *)
  let o2 = obj env ~nrefs:0 ~size:8 in
  Arena.ref_set_raw (Heap.arena env.heap) o1 0 o2;
  Card_table.dirty (Heap.cards env.heap) (Arena.card_of_addr o1);
  Card_clean.start_pass env.cleaner ~force_fences:(fun () -> ());
  check ci "re-dirtied card registered by next pass" 1
    (Card_clean.queue_len env.cleaner);
  (match Card_clean.clean_one env.cleaner env.tracer s ~stw:true with
  | Some _ -> ()
  | None -> Alcotest.fail "expected card");
  Tracer.release env.tracer s;
  drain env;
  check cb "late store caught by the later pass" true
    (Heap.is_marked env.heap o2);
  check ci "stw counter" 1 (Card_clean.stw_cleaned env.cleaner)

let test_unsafe_object_redirties_card () =
  let env = mk () in
  (* a MARKED object whose allocation bit is not yet published cannot be
     rescanned; the card must come back dirty for a later pass *)
  let unpub = 30_000 in
  Arena.write_header (Heap.arena env.heap) unpub ~size:8 ~nrefs:0;
  ignore (Heap.mark_test_and_set env.heap unpub);
  Card_table.dirty (Heap.cards env.heap) (Arena.card_of_addr unpub);
  Card_clean.start_pass env.cleaner ~force_fences:(fun () -> ());
  let s = Tracer.new_session env.tracer in
  ignore (Card_clean.clean_one env.cleaner env.tracer s ~stw:false);
  Tracer.release env.tracer s;
  check ci "card re-dirtied" 1 (Card_clean.redirtied env.cleaner);
  check cb "dirty again in the table" true
    (Card_table.is_dirty (Heap.cards env.heap) (Arena.card_of_addr unpub));
  (* after publication the next pass handles it *)
  Alloc_bits.set (Heap.alloc_bits env.heap) unpub;
  Card_clean.start_pass env.cleaner ~force_fences:(fun () -> ());
  let s = Tracer.new_session env.tracer in
  (match Card_clean.clean_one env.cleaner env.tracer s ~stw:false with
  | Some n -> check ci "rescanned after publication" 8 n
  | None -> Alcotest.fail "card expected");
  Tracer.release env.tracer s

let test_object_spanning_cards () =
  let env = mk () in
  (* a large marked object spans several cards; dirtying a card in its
     middle must retrace it *)
  let big = obj env ~nrefs:1 ~size:300 in
  let child = obj env ~nrefs:0 ~size:8 in
  ignore (Heap.mark_test_and_set env.heap big);
  Arena.ref_set_raw (Heap.arena env.heap) big 0 child;
  let mid_card = Arena.card_of_addr (big + 150) in
  Card_table.dirty (Heap.cards env.heap) mid_card;
  Card_clean.start_pass env.cleaner ~force_fences:(fun () -> ());
  let s = Tracer.new_session env.tracer in
  (match Card_clean.clean_one env.cleaner env.tracer s ~stw:false with
  | Some n -> check cb "spanning object rescanned" true (n >= 300)
  | None -> Alcotest.fail "card expected");
  Tracer.release env.tracer s;
  drain env;
  check cb "child found through spanning object" true
    (Heap.is_marked env.heap child)

let test_force_fences_called () =
  let env = mk () in
  Card_table.dirty (Heap.cards env.heap) 3;
  let called = ref false in
  Card_clean.start_pass env.cleaner ~force_fences:(fun () -> called := true);
  check cb "step-2 callback invoked" true !called

let () =
  Alcotest.run "cardclean"
    [
      ( "card-clean",
        [
          Alcotest.test_case "pass lifecycle" `Quick test_pass_lifecycle;
          Alcotest.test_case "retraces marked on dirty card" `Quick
            test_retraces_marked_on_dirty_card;
          Alcotest.test_case "unmarked not retraced" `Quick
            test_unmarked_objects_not_retraced;
          Alcotest.test_case "cleaned once per pass" `Quick
            test_card_cleaned_once_per_pass;
          Alcotest.test_case "re-dirty recleaned" `Quick
            test_redirty_again_recleaned;
          Alcotest.test_case "unsafe object re-dirties" `Quick
            test_unsafe_object_redirties_card;
          Alcotest.test_case "object spanning cards" `Quick
            test_object_spanning_cards;
          Alcotest.test_case "force fences callback" `Quick
            test_force_fences_called;
        ] );
    ]
