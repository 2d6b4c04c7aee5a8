(* A sampling profiler for the simulator itself: where does host time go
   while a workload runs?

     dune exec bench/main.exe -- profile --workload jbb --ms 2000

   A SIGPROF timer interrupts the process every millisecond of CPU time
   (the kernel may round the period up to its tick) and the handler
   records the OCaml call stack ([Printexc.get_callstack]) as it is: a
   raw array of return addresses.  Only after the window are the stacks
   resolved to source lines and function names, each distinct address
   once, so the handler does as little as it can while the window runs:
   on jbb it takes 8-9 us a sample, where resolving and hashing the
   stack in the handler took 35-41 us.  The report gives each source
   line's share of the samples it was on top of the stack for
   ({e self}) and each function's share of the samples it appeared
   anywhere in ({e inclusive}).  External profilers are no substitute
   here: gprofng crashes on the scheduler's effect-handler stacks.

   A sample taken inside a simulated thread sees that thread's stack
   only, up to its effect handler, so on the server workloads the
   inclusive shares of the driver's own functions stay well below
   100%.

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
module P = Perfbench

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

let count acc slots =
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

(* Resolve the raw stacks, oldest sample first, each distinct return
   address once.  An address expands to several slots when calls were
   inlined into it, and to none when it has no debug information, as in
   [Printexc.backtrace_slots] of the whole stack. *)
let resolve stacks =
  let acc =
    {
      self = Hashtbl.create 256;
      incl = Hashtbl.create 256;
      seen = Hashtbl.create 64;
      samples = 0;
    }
  in
  let cache = Hashtbl.create 1024 in
  let slots_of (e : Printexc.raw_backtrace_entry) =
    let k = (e :> int) in
    match Hashtbl.find_opt cache k with
    | Some slots -> slots
    | None ->
        let slots =
          Option.value ~default:[||] (Printexc.backtrace_slots_of_raw_entry e)
        in
        Hashtbl.add cache k slots;
        slots
  in
  List.iter
    (fun bt ->
      Printexc.raw_backtrace_entries bt
      |> Array.map slots_of |> Array.to_list |> Array.concat |> count acc)
    (List.rev stacks);
  acc

let set_timer period =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = period; it_value = period })

(* Run [f] with the sampler armed; the raw stacks, newest first. *)
let sampled f =
  let stacks = ref [] in
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle
       (fun _ -> stacks := Printexc.get_callstack 512 :: !stacks));
  set_timer period_s;
  Fun.protect
    ~finally:(fun () ->
      set_timer 0.0;
      Sys.set_signal Sys.sigprof Sys.Signal_default)
    f;
  !stacks

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

let run ~workload:name ~ms =
  Cgc_experiments.Common.hdr
    (Printf.sprintf "Host profile: %s, %.0f simulated ms" name ms);
  let window = prepare (List.assoc name workloads) ~ms in
  let cpu0 = Sys.time () in
  let stacks = sampled window in
  let cpu1 = Sys.time () in
  let acc = resolve stacks in
  Printf.printf
    "%d samples over %.2f s of CPU time (resolved in %.2f s after the \
     window); each lands on the OCaml poll point after the interrupted \
     instruction.\n"
    acc.samples (cpu1 -. cpu0)
    (Sys.time () -. cpu1);
  print_shares "self (source line, function)" acc.self acc.samples;
  print_shares "inclusive (function)" acc.incl acc.samples
