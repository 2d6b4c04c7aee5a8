(* A sampling profiler for the simulator itself: where does host time go
   while a workload runs?

     dune exec bench/main.exe -- profile --workload jbb --ms 2000

   A SIGPROF timer interrupts the process every millisecond of CPU time
   (the kernel may round the period up to its tick) and the handler
   records the OCaml call stack ([Printexc.get_callstack]).  The report
   gives each source line's share of the samples it was on top of the
   stack for ({e self}) and each function's share of the samples it
   appeared anywhere in ({e inclusive}).  External profilers are no
   substitute here: gprofng crashes on the scheduler's effect-handler
   stacks.

   OCaml runs a signal handler only at its next poll point (an
   allocation, a function prologue or a loop back-edge), so a sample
   lands on the poll point after the interrupted instruction, not on
   the instruction itself; a long allocation-free loop's time is
   charged to its back-edge.

   The default (release) build inlines small functions across modules
   and libraries, so an inlined callee has no frame of its own, and
   its samples land on the caller's line that called it.  For example,
   on jbb [Collector.do_increment]'s loop line (its [find_work] call)
   carries much of the tracer's [trace_until] time: [trace_until]'s
   inclusive share is 29% on the release build against 43% on a
   [--profile dev] build.  [Pool.pop_raw] and [Machine.fence], 1.2%
   and 1.7% of the samples on a dev build, never appear by name.  Read
   a line's self share as that line plus whatever it inlined.  A dev
   build keeps the callees apart, but it is not the code that runs.

   The numbers are host-only: nothing here is written into a trace, a
   report or any other deterministic output. *)

module Vm = Cgc_runtime.Vm
module Config = Cgc_core.Config

let period_s = 0.001
let top = 25

type acc = {
  self : (string, int) Hashtbl.t;
  incl : (string, int) Hashtbl.t;
  seen : (string, unit) Hashtbl.t; (* functions already counted this sample *)
  mutable samples : int;
}

let bump h k =
  Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k))

let file_of slot =
  match Printexc.Slot.location slot with
  | Some l -> l.Printexc.filename
  | None -> ""

(* The handler's own frames sit on top of every stack; drop them. *)
let own_file = __FILE__

let sample acc =
  match Printexc.backtrace_slots (Printexc.get_callstack 512) with
  | None -> ()
  | Some slots ->
      let n = Array.length slots in
      let i = ref 0 in
      while !i < n && file_of slots.(!i) = own_file do
        incr i
      done;
      if !i < n then begin
        acc.samples <- acc.samples + 1;
        let s = slots.(!i) in
        let name = Option.value ~default:"?" (Printexc.Slot.name s) in
        (match Printexc.Slot.location s with
        | Some l ->
            bump acc.self
              (Printf.sprintf "%s:%d %s" l.Printexc.filename
                 l.Printexc.line_number name)
        | None -> bump acc.self name);
        Hashtbl.reset acc.seen;
        for j = !i to n - 1 do
          match Printexc.Slot.name slots.(j) with
          | Some f when not (Hashtbl.mem acc.seen f) ->
              Hashtbl.add acc.seen f ();
              bump acc.incl f
          | _ -> ()
        done
      end

let set_timer period =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = period; it_value = period })

(* Run [f] with the sampler armed. *)
let sampled f =
  let acc =
    {
      self = Hashtbl.create 256;
      incl = Hashtbl.create 256;
      seen = Hashtbl.create 64;
      samples = 0;
    }
  in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle (fun _ -> sample acc));
  set_timer period_s;
  Fun.protect
    ~finally:(fun () ->
      set_timer 0.0;
      Sys.set_signal Sys.sigprof Sys.Signal_default)
    f;
  acc

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

(* The workloads are perfbench's jbb and serve-gen set-ups: their warm-up
   runs unsampled, then [ms] simulated milliseconds are sampled. *)
let workloads =
  [
    ( "jbb",
      fun () ->
        let vm =
          Cgc_workloads.Specjbb.setup ~warehouses:8 ~gc:Config.default
            ~heap_mb:48.0 ~ncpus:4 ~seed:1 ()
        in
        (vm, 500.0) );
    ( "serve",
      fun () ->
        let vm =
          Vm.create
            (Vm.config ~heap_mb:24.0 ~ncpus:4 ~seed:1 ~gc:Config.gen ())
        in
        ignore
          (Cgc_server.Server.create
             (Cgc_server.Server.cfg ~rate_per_s:20_000.0 ~queue_cap:256
                ~workers:4 ~slo_ms:50.0 ())
             vm);
        (vm, 1000.0) );
  ]

let run ~workload:name ~ms =
  Cgc_experiments.Common.hdr
    (Printf.sprintf "Host profile: %s, %.0f simulated ms" name ms);
  let vm, warmup_ms = List.assoc name workloads () in
  Vm.run vm ~ms:warmup_ms;
  let cpu0 = Sys.time () in
  let acc = sampled (fun () -> Vm.run vm ~ms) in
  Printf.printf
    "%d samples over %.2f s of CPU time; each lands on the OCaml poll point \
     after the interrupted instruction.\n"
    acc.samples
    (Sys.time () -. cpu0);
  print_shares "self (source line, function)" acc.self acc.samples;
  print_shares "inclusive (function)" acc.incl acc.samples
