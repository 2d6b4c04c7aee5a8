(* A sampling profiler for the simulator itself: where does host time go
   while a workload runs?

     dune exec bench/main.exe -- profile --workload jbb --ms 2000

   Pc_sampler's SIGPROF timer interrupts the process every millisecond
   of CPU time (the kernel may round the period up to its tick), and its
   C handler records the interrupted program counter: the instruction
   itself, not the next OCaml poll point, so a load that misses the
   cache is charged to the line that issued it.  The handler runs on a
   signal stack of its own, so a sample that lands inside a simulated
   thread's fiber (a small heap-allocated stack) neither overflows it
   nor loses the sample.  After the window each distinct PC is resolved
   once, by one [addr2line -f] run on this executable, and the report
   gives each source line's and each function's share of the samples
   ({e self} shares; there is no call stack, so no inclusive share).
   PCs outside the executable (libc, the vDSO) are one "outside" row.

   The default (release) build inlines small functions across modules
   and libraries.  An inlined callee's instructions carry the callee's
   own source lines, but its samples count towards the function it was
   inlined into: a line such as [arena.ml]'s slot read appears once per
   function that inlined it, and within one function its header and
   reference-slot loads share that line.

   The numbers are host-only: nothing here is written into a trace, a
   report or any other deterministic output. *)

module Vm = Cgc_runtime.Vm
module P = Perfbench

let period_s = 0.001
let top = 25

let print_shares title h samples =
  let rows = Hashtbl.fold (fun k v l -> (k, v) :: l) h [] in
  let rows = List.sort (fun (a, x) (b, y) -> compare (y, a) (x, b)) rows in
  Printf.printf "\n%s\n" title;
  List.iteri
    (fun i (k, v) ->
      if i < top then
        Printf.printf "  %5.1f%%  %s\n"
          (100.0 *. float_of_int v /. float_of_int (max 1 samples))
          k)
    rows

let bump h k =
  Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k))

(* The workloads are perfbench's jbb, serve-gen and fleet, untraced at
   seed 1.  Each builds its VMs and runs perfbench's warm-up unsampled,
   then returns the window: [ms] simulated milliseconds.  The fleet has
   no warm-up (Cluster.run offers no seam before its first cycle), so
   its window is the whole run. *)
let workloads = [ ("jbb", P.Jbb); ("serve", P.Serve_gen); ("fleet", P.Fleet) ]

let prepare w ~ms =
  let gc = P.gc_of w and seed = 1 and trace = false in
  let warmed vm =
    Vm.run vm ~ms:(P.default_windows w).P.warmup_ms;
    fun () -> Vm.run vm ~ms
  in
  match w with
  | P.Jbb -> warmed (P.jbb_vm ~gc ~seed ~trace (Cgc_util.Stats.create ()))
  | P.Serve_gen -> warmed (fst (P.serve_vm ~gc ~seed ~trace))
  | P.Fleet ->
      let cfg = P.fleet_cfg ~gc ~seed ~trace ~ms in
      fun () -> ignore (Cgc_cluster.Cluster.run cfg)

let outside = "outside the executable"

let run ~workload:name ~ms =
  Cgc_experiments.Common.hdr
    (Printf.sprintf "Host profile: %s, %.0f simulated ms" name ms);
  let window = prepare (List.assoc name workloads) ~ms in
  let cpu0 = Sys.time () in
  let (), pcs, dropped = Pc_sampler.sample ~period_s window in
  let cpu1 = Sys.time () in
  let sites = Pc_sampler.resolve pcs in
  let lines = Hashtbl.create 1024 and funcs = Hashtbl.create 256 in
  Array.iter
    (function
      | Pc_sampler.Outside ->
          bump lines outside;
          bump funcs outside
      | Pc_sampler.Code { func; file; line } ->
          bump lines (Printf.sprintf "%s:%d %s" file line func);
          bump funcs func)
    sites;
  let samples = Array.length sites in
  Printf.printf
    "%d samples (%d dropped) over %.2f s of CPU time (resolved in %.2f s \
     after the window); each is the interrupted instruction.\n"
    samples dropped (cpu1 -. cpu0)
    (Sys.time () -. cpu1);
  print_shares "self (source line, function)" lines samples;
  print_shares "self (function)" funcs samples
