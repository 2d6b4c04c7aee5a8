(* The benchmark harness: the fixed benchmark matrix, a sampling
   profile of the simulator's own host time, and Bechamel
   micro-benchmarks of the collector's hot operations.  The paper's
   tables, figures and ablations are `cgcsim experiment NAME`.

     dune exec bench/main.exe -- matrix --fast --jobs 2 \
         --out BENCH_PR10.json --trace-out bench-cell0.trace.json
     dune exec bench/main.exe -- profile --workload jbb --ms 2000
     dune exec bench/main.exe -- micro

   The flags are Cgc_cli.Flags' shared cmdliner terms, so a malformed
   value exits 1, as it does for cgcsim. *)

open Cmdliner
open Term.Syntax
open Cgc_cli.Flags

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

let run_micro ~fast =
  E.Common.hdr "Micro-benchmarks (Bechamel, host nanoseconds per operation)";
  let tests = Test.make_grouped ~name:"cgc" (micro_tests ()) in
  let quota = if fast then 0.2 else 0.5 in
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

(* ----------------------------- commands ----------------------------- *)

let matrix_cmd =
  cmd "matrix"
    ~doc:
      "Run the benchmark matrix and write its $(b,cgcsim-bench-v1) JSON \
       document; exit 1 if any cell dropped trace events."
    (let+ out =
       opt_arg ~docv:"FILE" Arg.string "BENCH_PR10.json" [ "out" ]
         "Write the matrix document to $(docv)."
     and+ trace_out = trace_out ~doc:"Write cell 0's Chrome trace to $(docv)." ()
     and+ jobs =
       jobs
         "Run cells on $(docv) OCaml domains.  Host-side parallelism only: \
          the document and the trace are byte-identical at every job count."
     and+ fast in
     Bench_matrix.run ~out ?trace_out ~jobs ~fast ())

let profile_cmd =
  cmd "profile" ~doc:"Sample the simulator's own host time over one workload."
    (let+ workload =
       opt_arg
         (Arg.enum (List.map (fun (w, _) -> (w, w)) Profile.workloads))
         "jbb" [ "workload" ] "Workload: jbb or serve."
     and+ ms =
       opt_arg positive_float 2000.0 [ "ms" ]
         "Simulated milliseconds sampled after the warm-up."
     in
     Profile.run ~workload ~ms)

let micro_cmd =
  cmd "micro" ~doc:"Bechamel micro-benchmarks of the collector's hot operations."
    (let+ fast in
     run_micro ~fast)

let () =
  eval
    (Cmd.group
       (Cmd.info "bench" ~exits ~doc:"The cgcsim benchmark harness.")
       [ matrix_cmd; profile_cmd; micro_cmd ])
