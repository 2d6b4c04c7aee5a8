(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section, runs the ablation studies from DESIGN.md,
   and finishes with Bechamel micro-benchmarks of the collector's hot
   operations.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig1      # one experiment
     CGC_BENCH_FAST=1 dune exec bench/main.exe   # fast smoke sweep

   Targets: fig1 fig2 table1 table2 table3 table4 javac packetmem
            serverlat genlat clusterlat clusterchaos ablation-fence
            ablation-cardpass ablation-lazysweep ablation-steal
            ablation-compact itanium micro matrix profile all

   The matrix target additionally honours --out FILE (default
   BENCH_PR10.json), --trace-out FILE (Chrome trace of cell 0) and
   --jobs N (run cells on N OCaml 5 domains; simulated results are
   identical at every N, only host wall-clock changes).  --jobs also
   fans out the per-target experiment sweeps.

   The profile target samples the simulator's own host time (see
   profile.ml) over one workload: --workload jbb|serve (default jbb)
   and --ms N simulated milliseconds after the warm-up (default 2000). *)

module E = Cgc_experiments

(* ------------------------- micro-benchmarks ------------------------- *)

open Bechamel
open Toolkit

let micro_tests () =
  let mach = Cgc_smp.Machine.testing () in
  let heap = Cgc_heap.Heap.create mach ~nslots:(1 lsl 20) in
  let pool = Cgc_packets.Pool.create mach ~n_packets:64 ~capacity:493 in
  let packet = Cgc_packets.Packet.make mach ~id:999 ~capacity:493 in
  let bits = Cgc_util.Bitvec.create (1 lsl 20) in
  (* a published object with refs to already-marked children, so scanning
     it repeatedly is a net no-op *)
  let parent =
    match Cgc_heap.Heap.alloc_large heap ~size:16 ~nrefs:4 ~mark_new:true with
    | Some a -> a
    | None -> assert false
  in
  for i = 0 to 3 do
    let child =
      match Cgc_heap.Heap.alloc_large heap ~size:8 ~nrefs:0 ~mark_new:true with
      | Some a -> a
      | None -> assert false
    in
    Cgc_heap.Arena.ref_set_raw (Cgc_heap.Heap.arena heap) parent i child
  done;
  let tracer =
    Cgc_core.Tracer.create Cgc_core.Config.default heap pool
  in
  let session = Cgc_core.Tracer.new_session tracer in
  let cards = Cgc_heap.Heap.cards heap in
  [
    Test.make ~name:"packet push+pop"
      (Staged.stage (fun () ->
           ignore (Cgc_packets.Packet.push packet 42);
           ignore (Cgc_packets.Packet.pop packet)));
    Test.make ~name:"pool get_output+put"
      (Staged.stage (fun () ->
           match Cgc_packets.Pool.get_output pool with
           | Some p -> Cgc_packets.Pool.put pool p
           | None -> ()));
    Test.make ~name:"write barrier (ref store + card dirty)"
      (Staged.stage (fun () ->
           Cgc_heap.Arena.ref_set_raw (Cgc_heap.Heap.arena heap) parent 0
             (parent + 16);
           Cgc_heap.Card_table.dirty cards
             (Cgc_heap.Arena.card_of_addr parent)));
    Test.make ~name:"mark bit test-and-set + clear"
      (Staged.stage (fun () ->
           ignore (Cgc_util.Bitvec.test_and_set bits 12345);
           Cgc_util.Bitvec.clear bits 12345));
    Test.make ~name:"bitvec next_set scan (1 Kslot)"
      (Staged.stage (fun () -> ignore (Cgc_util.Bitvec.next_set bits 500_000)));
    Test.make ~name:"tracer scan_object (4 marked children)"
      (Staged.stage (fun () ->
           ignore
             (Cgc_core.Tracer.scan_object tracer session ~retrace:true parent)));
    Test.make ~name:"card snapshot (empty table)"
      (Staged.stage (fun () ->
           ignore (Cgc_heap.Card_table.snapshot cards)));
  ]

let run_micro () =
  E.Common.hdr "Micro-benchmarks (Bechamel, host nanoseconds per operation)";
  let tests = Test.make_grouped ~name:"cgc" (micro_tests ()) in
  let quota = if E.Common.quick () then 0.2 else 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  let t =
    Cgc_util.Table.create ~title:"" ~header:[ "operation"; "ns/op" ]
  in
  List.iter
    (fun (name, est) ->
      let ns =
        match Analyze.OLS.estimates est with
        | Some (x :: _) -> Printf.sprintf "%.1f" x
        | _ -> "n/a"
      in
      Cgc_util.Table.add_row t [ name; ns ])
    rows;
  Cgc_util.Table.print t

(* ----------------------------- dispatch ----------------------------- *)

let targets : (string * (unit -> unit)) list =
  [
    ("fig1", fun () -> ignore (E.Fig1_specjbb.run ()));
    ("fig2", fun () -> ignore (E.Fig2_pbob.run ()));
    ( "table1",
      fun () ->
        let s = E.Tables123.run_sweep () in
        E.Tables123.table1 s );
    ( "table2",
      fun () ->
        let s = E.Tables123.run_sweep () in
        E.Tables123.table2 s );
    ( "table3",
      fun () ->
        let s = E.Tables123.run_sweep () in
        E.Tables123.table3 s );
    ("table4", fun () -> ignore (E.Table4_load_balance.run ()));
    ("javac", fun () -> ignore (E.Javac_exp.run ()));
    ("packetmem", fun () -> ignore (E.Packet_memory.run ()));
    ("serverlat", fun () -> ignore (E.Server_latency.run ()));
    ("genlat", fun () -> ignore (E.Genlat.run ()));
    ("clusterlat", fun () -> ignore (E.Clusterlat.run ()));
    ("clusterchaos", fun () -> ignore (E.Clusterchaos.run ()));
    ("ablation-fence", fun () -> ignore (E.Ablations.fence_batching ()));
    ("ablation-cardpass", fun () -> ignore (E.Ablations.card_passes ()));
    ("ablation-lazysweep", fun () -> ignore (E.Ablations.lazy_sweep ()));
    ("ablation-steal", fun () -> ignore (E.Ablations.stealing ()));
    ("ablation-compact", fun () -> ignore (E.Ablations.compaction ()));
    ("itanium", fun () -> ignore (E.Ablations.itanium ()));
    ("micro", run_micro);
  ]

(* --out / --trace-out / --jobs for the matrix target. *)
let matrix_out = ref "BENCH_PR10.json"
let matrix_trace_out : string option ref = ref None
let jobs = ref 1

(* --workload / --ms for the profile target. *)
let profile_workload = ref "jbb"
let profile_ms = ref 2000.0

let run_all () =
  (* Tables 1-3 share one sweep when running everything. *)
  ignore (E.Fig1_specjbb.run ());
  ignore (E.Tables123.run ());
  ignore (E.Fig2_pbob.run ());
  ignore (E.Table4_load_balance.run ());
  ignore (E.Javac_exp.run ());
  ignore (E.Packet_memory.run ());
  ignore (E.Server_latency.run ());
  ignore (E.Genlat.run ());
  ignore (E.Clusterlat.run ());
  E.Ablations.run_all ();
  run_micro ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* Peel off the matrix options wherever they appear; what remains is
     the target list. *)
  let rec strip = function
    | "--out" :: v :: rest ->
        matrix_out := v;
        strip rest
    | "--trace-out" :: v :: rest ->
        matrix_trace_out := Some v;
        strip rest
    | "--workload" :: v :: rest ->
        profile_workload := v;
        strip rest
    | "--ms" :: v :: rest ->
        (match float_of_string_opt v with
        | Some ms when ms > 0.0 -> profile_ms := ms
        | _ ->
            Printf.eprintf "--ms expects a positive number, got %s\n" v;
            exit Cgc_cli.Exit_codes.usage);
        strip rest
    | "--jobs" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 -> jobs := n
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %s\n" v;
            exit Cgc_cli.Exit_codes.usage);
        strip rest
    | x :: rest -> x :: strip rest
    | [] -> []
  in
  let names = strip args in
  E.Common.set_jobs !jobs;
  let targets =
    targets
    @ [
        ( "matrix",
          fun () ->
            Bench_matrix.run ~out:!matrix_out ?trace_out:!matrix_trace_out
              ~jobs:!jobs ()
        );
        ( "profile",
          fun () -> Profile.run ~workload:!profile_workload ~ms:!profile_ms );
      ]
  in
  Printf.printf
    "CGC paper reproduction bench harness%s\n"
    (if E.Common.quick () then " (CGC_BENCH_FAST: shrunk sweeps)" else "");
  match names with
  | [] | [ "all" ] -> run_all ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name targets with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown target %s; available: %s all\n" name
                (String.concat " " (List.map fst targets));
              exit Cgc_cli.Exit_codes.usage)
        names
