(* Configuration fuzzing: random combinations of heap size, CPU count,
   collector mode (stw, cgc, gen) and features (tracing rate, packets,
   lazy sweep, compaction, card passes, fence policy, memory model) each
   run a churn workload briefly; afterwards the reachable heap must be
   fully intact and the tracer must have observed no corruption.  This
   is the failure-injection net that catches interactions the targeted
   tests miss.

   The generator draws from the full option product; [Config.validate]
   alone decides which combinations are legal.  The soundness property
   runs only the legal ones, and a second property checks that
   [Collector.create] rejects exactly the illegal ones. *)

module Vm = Cgc_runtime.Vm
module Mutator = Cgc_runtime.Mutator
module Collector = Cgc_core.Collector
module Sched = Cgc_sim.Sched
module Heap = Cgc_heap.Heap
module Machine = Cgc_smp.Machine
module Config = Cgc_core.Config
module Tracer = Cgc_core.Tracer
module Objgraph = Cgc_workloads.Objgraph
module Prng = Cgc_util.Prng
module Fault = Cgc_fault.Fault

(* Tunable from the command line via `make fuzz FUZZ_COUNT=...` (or the
   environment): how many random configurations to try. *)
let fuzz_count =
  match Sys.getenv_opt "FUZZ_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 25)
  | None -> 25

let churn resident m =
  let rng = Mutator.rng m in
  for i = 0 to 3 do
    let head = Objgraph.build_list m ~len:resident ~node_slots:10 in
    Mutator.root_set m i head
  done;
  while not (Mutator.stopped m) do
    let li = Prng.int rng 4 in
    let old = Mutator.root_get m li in
    let tail = Mutator.get_ref m old 0 in
    Mutator.root_set m 5 tail;
    let fresh = Mutator.alloc m ~nrefs:1 ~size:10 in
    Mutator.set_ref m fresh 0 tail;
    Mutator.root_set m li fresh;
    Mutator.root_set m 5 0;
    for _ = 1 to 4 do
      let o = Mutator.alloc m ~nrefs:1 ~size:(4 + Prng.int rng 8) in
      Mutator.root_set m 4 o
    done;
    Mutator.root_set m 4 0;
    if Prng.chance rng 0.05 then
      Mutator.root_set m 6 (Prng.int rng max_int);
    Mutator.work m 4_000;
    if Prng.chance rng 0.1 then Mutator.think m (Prng.int rng 100_000);
    Mutator.tx_done m
  done

let gen =
  QCheck.Gen.(
    let* heap_mb = oneofl [ 2.0; 4.0; 8.0 ] in
    let* ncpus = int_range 1 6 in
    let* workers = int_range 1 6 in
    let* mode = oneofl [ Config.Cgc; Config.Stw; Config.Gen ] in
    let* k0 = oneofl [ 1.0; 4.0; 8.0; 12.0 ] in
    let* n_packets = oneofl [ 8; 64; 1000 ] in
    let* capacity = oneofl [ 4; 64; 493 ] in
    let* n_background = int_range 0 3 in
    let* card_passes = int_range 1 2 in
    let* lazy_sweep = bool in
    let* compaction = bool in
    let* stealing = bool in
    let* relaxed = bool in
    let* naive = bool in
    (* a random subset of fault scenarios (bit i of the mask = scenario
       i armed); armed runs also turn the cycle-boundary verifier on *)
    let* fault_mask = int_range 0 63 in
    let* seed = int_range 1 1000 in
    return
      ( heap_mb,
        ncpus,
        workers,
        {
          Config.default with
          Config.mode;
          k0;
          n_packets;
          packet_capacity = capacity;
          n_background;
          card_passes;
          lazy_sweep;
          compaction;
          load_balance = (if stealing then Config.Stealing else Config.Packets);
        },
        relaxed,
        naive,
        fault_mask,
        seed ))

let scenarios_of_mask mask =
  List.filter (fun s -> mask land (1 lsl Fault.index s) <> 0) Fault.all

let print_cfg
    (heap_mb, ncpus, workers, (gc : Config.t), relaxed, naive, fault_mask, seed)
    =
  Printf.sprintf
    "heap=%.0fMB cpus=%d workers=%d mode=%s k0=%.0f pkts=%dx%d bg=%d passes=%d lazy=%b compact=%b steal=%b relaxed=%b naive=%b faults=[%s] seed=%d"
    heap_mb ncpus workers
    (Config.mode_name gc.Config.mode)
    gc.Config.k0 gc.Config.n_packets gc.Config.packet_capacity
    gc.Config.n_background gc.Config.card_passes gc.Config.lazy_sweep
    gc.Config.compaction
    (gc.Config.load_balance = Config.Stealing)
    relaxed naive
    (String.concat "," (List.map Fault.to_name (scenarios_of_mask fault_mask)))
    seed

let arb = QCheck.make ~print:print_cfg gen

(* One draw of the soundness property: run the churn, then walk the
   reachable heap.  [Error] says what broke. *)
let soundness (heap_mb, ncpus, workers, gc, relaxed, naive, fault_mask, seed) =
  let scenarios = scenarios_of_mask fault_mask in
  let gc =
    if scenarios = [] then gc
    else
      {
        gc with
        Config.faults = Fault.create ~scenarios ~seed ();
        verify = true;
      }
  in
  let vm =
    Vm.create
      (Vm.config ~heap_mb ~ncpus ~seed ~gc
         ~wm_mode:(if relaxed then Cgc_smp.Weakmem.Relaxed else Cgc_smp.Weakmem.Sc)
         ~fence_policy:(if naive then Cgc_heap.Heap.Naive else Cgc_heap.Heap.Batched)
         ())
  in
  (* size the resident churn to roughly a third of the heap *)
  let resident =
    int_of_float (heap_mb *. 1024.0 *. 1024.0 /. 8.0 /. 3.0)
    / (workers * 4 * 10)
  in
  for i = 1 to workers do
    Vm.spawn_mutator vm
      ~name:(Printf.sprintf "w%d" i)
      (churn (max 10 resident))
  done;
  Vm.run vm ~ms:250.0;
  (* quiesce so the committed view is coherent for verification *)
  Cgc_smp.Weakmem.fence_all (Vm.machine vm).Cgc_smp.Machine.wm;
  let coll = Vm.collector vm in
  let corruptions = Tracer.corruptions (Collector.tracer coll) in
  match List.rev (Collector.check_reachable coll) with
  | [] when corruptions = 0 -> Ok ()
  | bad ->
      let first =
        match bad with
        | (from, addr) :: _ ->
            Printf.sprintf ", the first (referrer %d, address %d)" from addr
        | [] -> ""
      in
      Error
        (Printf.sprintf "%d bad (referrer, address) pairs%s; %d tracer corruptions"
           (List.length bad) first corruptions)

(* Nine of the 24 mode x lazy sweep x compaction x stealing
   combinations are legal, so allow ample draws. *)
let fuzz =
  QCheck.Test.make ~name:"random configurations keep the heap sound"
    ~count:fuzz_count ~max_gen:(10 * fuzz_count) arb
    (fun ((_, _, _, gc, _, _, _, _) as draw) ->
      QCheck.assume (Config.validate gc = Ok ());
      match soundness draw with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "%s" msg)

(* A recorded draw, fixed so it runs on every build: lazy sweep on three
   CPUs, where two threads used to start the same cycle. *)
let test_double_start_draw () =
  let draw =
    ( 4.0,
      3,
      6,
      {
        Config.default with
        Config.mode = Config.Cgc;
        k0 = 1.0;
        n_packets = 64;
        packet_capacity = 4;
        n_background = 2;
        card_passes = 2;
        lazy_sweep = true;
        compaction = false;
        load_balance = Config.Packets;
      },
      false,
      false,
      List.fold_left
        (fun mask s -> mask lor (1 lsl Fault.index s))
        0
        Fault.
          [ Packet_starvation; Alloc_burst; Mutator_stall; Card_storm; Bg_stall ],
      687 )
  in
  Alcotest.(check string) "the draw as the fuzzer prints it"
    "heap=4MB cpus=3 workers=6 mode=cgc k0=1 pkts=64x4 bg=2 passes=2 \
     lazy=true compact=false steal=false relaxed=false naive=false \
     faults=[packet-starvation,alloc-burst,mutator-stall,card-storm,bg-stall] \
     seed=687"
    (print_cfg draw);
  match soundness draw with Ok () -> () | Error msg -> Alcotest.fail msg

let create_agrees_with_validate =
  QCheck.Test.make
    ~name:"Collector.create raises exactly when Config.validate rejects"
    ~count:500 arb
    (fun (_, _, _, gc, _, _, _, _) ->
      let raised =
        match
          Collector.create gc ~sched:(Sched.create ~ncpus:1 ())
            ~heap:(Heap.create (Machine.testing ()) ~nslots:16384)
        with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      raised = Result.is_error (Config.validate gc))

let () =
  Alcotest.run "fuzz"
    [
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest ~long:true fuzz;
          QCheck_alcotest.to_alcotest create_agrees_with_validate;
          Alcotest.test_case "recorded draw: lazy sweep, seed 687" `Slow
            test_double_start_draw;
        ] );
    ]
