(* Tests for the discrete-event scheduler: effect-based threads, cycle
   accounting, priorities, preemption, sleep, stop-the-world and the
   fork-join helper. *)

module Sched = Cgc_sim.Sched
module Parallel = Cgc_sim.Parallel

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let test_single_thread_consumes () =
  let s = Sched.create ~ncpus:1 () in
  let done_at = ref (-1) in
  ignore
    (Sched.spawn s ~name:"t" ~prio:Sched.Normal (fun () ->
         Sched.consume s 1000;
         done_at := Sched.now s));
  Sched.run s ~until:1_000_000;
  check ci "consumed 1000 cycles" 1000 !done_at

let test_threads_finish () =
  let s = Sched.create ~ncpus:2 () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore
      (Sched.spawn s ~name:"w" ~prio:Sched.Normal (fun () ->
           Sched.consume s 500;
           incr count))
  done;
  Sched.run s ~until:1_000_000;
  check ci "all threads ran" 10 !count

let test_parallel_speedup () =
  (* 4 threads of equal work on 4 CPUs should finish in about the time of
     one, not four. *)
  let run ncpus =
    let s = Sched.create ~ncpus () in
    let finish = ref 0 in
    for _ = 1 to 4 do
      ignore
        (Sched.spawn s ~name:"w" ~prio:Sched.Normal (fun () ->
             Sched.consume s 100_000;
             if Sched.now s > !finish then finish := Sched.now s))
    done;
    Sched.run s ~until:10_000_000;
    !finish
  in
  let t1 = run 1 and t4 = run 4 in
  check cb "4 cpus at least 3x faster" true (t1 > 3 * t4)

let test_sleep_wakes () =
  let s = Sched.create ~ncpus:1 () in
  let woke_at = ref (-1) in
  ignore
    (Sched.spawn s ~name:"sleeper" ~prio:Sched.Normal (fun () ->
         Sched.sleep 5000;
         woke_at := Sched.now s));
  Sched.run s ~until:1_000_000;
  check cb "woke after 5000" true (!woke_at >= 5000)

let test_sleep_frees_cpu () =
  (* While one thread sleeps, another runs; total elapsed ~ sleep time,
     not sleep + work. *)
  let s = Sched.create ~ncpus:1 () in
  let worked = ref 0 in
  ignore
    (Sched.spawn s ~name:"sleeper" ~prio:Sched.Normal (fun () ->
         Sched.sleep 100_000));
  ignore
    (Sched.spawn s ~name:"worker" ~prio:Sched.Normal (fun () ->
         for _ = 1 to 10 do
           Sched.consume s 5_000;
           worked := !worked + 5_000
         done));
  Sched.run s ~until:10_000_000;
  check ci "worker did all its work" 50_000 !worked;
  check cb "busy cycles counted" true (Sched.busy_cycles s >= 50_000)

let test_low_priority_starves_under_load () =
  (* Low-priority threads are heavily deprioritised under load, but
     priority aging gives them an occasional slice (one per
     [low_boost_every] dispatches) so they never starve absolutely. *)
  let s = Sched.create ~ncpus:1 ~quantum:1000 () in
  let low_ran = ref 0 in
  let normal_done = ref false in
  ignore
    (Sched.spawn s ~name:"normal" ~prio:Sched.Normal (fun () ->
         for _ = 1 to 100 do
           Sched.consume s 1000
         done;
         normal_done := true));
  ignore
    (Sched.spawn s ~name:"low" ~prio:Sched.Low (fun () ->
         Sched.consume s 10;
         low_ran := Sched.now s));
  Sched.run s ~until:10_000_000;
  check cb "normal finished" true !normal_done;
  (* The low thread waited for many normal quanta (the aging threshold)
     before getting its first slice. *)
  check cb "low heavily deprioritised" true (!low_ran >= 50 * 1000)

let test_low_priority_uses_idle () =
  (* When the normal thread sleeps, the low-priority thread soaks the
     idle processor. *)
  let s = Sched.create ~ncpus:1 () in
  let low_progress = ref 0 in
  ignore
    (Sched.spawn s ~name:"normal" ~prio:Sched.Normal (fun () ->
         for _ = 1 to 5 do
           Sched.consume s 1_000;
           Sched.sleep 50_000
         done));
  ignore
    (Sched.spawn s ~name:"low" ~prio:Sched.Low (fun () ->
         for _ = 1 to 100 do
           Sched.consume s 1_000;
           incr low_progress;
           Sched.yield ()
         done));
  Sched.run s ~until:1_000_000;
  check cb "low made progress during sleeps" true (!low_progress >= 100)

let test_preemption_interleaves () =
  (* With a small quantum two equal threads on one CPU should interleave,
     so neither finishes drastically before the other. *)
  let s = Sched.create ~ncpus:1 ~quantum:1_000 () in
  let first_done = ref "" in
  let spawn name =
    ignore
      (Sched.spawn s ~name ~prio:Sched.Normal (fun () ->
           for _ = 1 to 50 do
             Sched.consume s 1_000
           done;
           if !first_done = "" then first_done := name))
  in
  spawn "a";
  spawn "b";
  Sched.run s ~until:10_000_000;
  (* both consumed 50k; with round-robin the first finisher ends within
     ~one quantum of the second *)
  check cb "someone finished" true (!first_done <> "")

let test_stop_the_world () =
  let s = Sched.create ~ncpus:2 ~quantum:500 () in
  let mutator_progress = ref 0 in
  let during_stop = ref (-1) in
  let after_stop = ref (-1) in
  ignore
    (Sched.spawn s ~name:"mutator" ~prio:Sched.Normal (fun () ->
         for _ = 1 to 1000 do
           Sched.consume s 100;
           incr mutator_progress
         done));
  ignore
    (Sched.spawn s ~name:"gc" ~prio:Sched.Normal (fun () ->
         Sched.consume s 2_000;
         Sched.stop_the_world s;
         let p0 = !mutator_progress in
         (* burn a long time; the mutator must not advance *)
         for _ = 1 to 100 do
           Sched.consume s 1_000
         done;
         during_stop := !mutator_progress - p0;
         let pause = Sched.restart_world s in
         after_stop := pause));
  Sched.run s ~until:10_000_000;
  check ci "mutator frozen during stop" 0 !during_stop;
  check cb "pause measured" true (!after_stop >= 100_000);
  check ci "mutator finished after restart" 1000 !mutator_progress

let test_high_prio_runs_during_stop () =
  let s = Sched.create ~ncpus:2 ~quantum:500 () in
  let helper_ran = ref false in
  ignore
    (Sched.spawn s ~name:"gc" ~prio:Sched.Normal (fun () ->
         Sched.stop_the_world s;
         ignore
           (Sched.spawn s ~name:"helper" ~prio:Sched.High (fun () ->
                Sched.consume s 100;
                helper_ran := true));
         (* wait for helper *)
         while not !helper_ran do
           Sched.yield ()
         done;
         ignore (Sched.restart_world s)));
  Sched.run s ~until:10_000_000;
  check cb "helper ran while world stopped" true !helper_ran

let test_parallel_join () =
  let s = Sched.create ~ncpus:4 () in
  let hits = Array.make 4 false in
  let after = ref false in
  ignore
    (Sched.spawn s ~name:"main" ~prio:Sched.Normal (fun () ->
         Parallel.run s ~workers:4 (fun i ->
             Sched.consume s (1000 * (i + 1));
             hits.(i) <- true);
         after := Array.for_all (fun x -> x) hits));
  Sched.run s ~until:10_000_000;
  check cb "all workers ran before join returned" true !after

let test_determinism () =
  let run () =
    let s = Sched.create ~ncpus:3 ~quantum:700 () in
    let log = Buffer.create 64 in
    for i = 1 to 5 do
      ignore
        (Sched.spawn s
           ~name:(Printf.sprintf "t%d" i)
           ~prio:Sched.Normal
           (fun () ->
             for _ = 1 to 10 do
               Sched.consume s (100 * i);
               Buffer.add_string log (string_of_int i)
             done))
    done;
    Sched.run s ~until:1_000_000;
    Buffer.contents log
  in
  check Alcotest.string "two identical runs interleave identically" (run ())
    (run ())

let test_run_until_bounds () =
  let s = Sched.create ~ncpus:1 ~quantum:10_000 () in
  ignore
    (Sched.spawn s ~name:"inf" ~prio:Sched.Normal (fun () ->
         while true do
           Sched.consume s 1_000
         done));
  Sched.run s ~until:50_000;
  check cb "stopped near the bound" true (Sched.now s <= 80_000);
  (* the cooperative stop flag is only raised by request_stop, so that
     [run] can be called again to continue the simulation *)
  check cb "stop flag untouched" false (Sched.stop_requested s);
  Sched.request_stop s;
  check cb "request_stop raises it" true (Sched.stop_requested s)

let test_idle_accounting () =
  let s = Sched.create ~ncpus:4 ~quantum:10_000 () in
  ignore
    (Sched.spawn s ~name:"lone" ~prio:Sched.Normal (fun () ->
         Sched.consume s 100_000));
  Sched.run s ~until:1_000_000;
  check cb "idle cycles recorded on the other cpus" true
    (Sched.idle_cycles s > 0)

let test_thread_cycles () =
  let s = Sched.create ~ncpus:1 () in
  let th = ref None in
  ignore
    (Sched.spawn s ~name:"t" ~prio:Sched.Normal (fun () ->
         th := Some (Sched.current s);
         Sched.consume s 12_345));
  Sched.run s ~until:1_000_000;
  match !th with
  | Some th -> check ci "cycles attributed" 12_345 (Sched.thread_cycles th)
  | None -> Alcotest.fail "thread never ran"

let test_no_thread_retention () =
  (* Regression for the PR 9 vacated-slot leaks: thousands of short-lived
     sleepers churn the sleep queue and all three runqueue rings through
     growth and wrap; afterwards no queue may hold any dead thread, and
     no dead thread may keep a continuation or a poll predicate. *)
  let s = Sched.create ~ncpus:4 ~quantum:10_000 () in
  (* Every tenth thread also polls until the scheduler has iterated [i]
     times, so some threads die after a poll. *)
  let iterations = ref 0 in
  Sched.on_advance s (fun _ -> incr iterations);
  for i = 0 to 2_999 do
    let prio =
      match i mod 3 with 0 -> Sched.High | 1 -> Sched.Normal | _ -> Sched.Low
    in
    ignore
      (Sched.spawn s ~name:"ephemeral" ~prio (fun () ->
           Sched.sleep (1 + (i mod 97) * 53);
           Sched.consume s (1 + (i mod 11) * 1_000);
           Sched.yield ();
           if i mod 10 = 0 then
             Sched.poll (1 + (i mod 37)) ~ready:(fun () -> !iterations >= i);
           Sched.sleep (1 + (i mod 13) * 29)))
  done;
  Sched.run s ~until:100_000_000;
  check cb "all threads finished" true
    (List.for_all
       (fun th -> Sched.thread_state th = Sched.Dead)
       (Sched.threads s));
  check cb "no queue retains a dead thread" true (Sched.debug_queues_clean s)

(* ---------------------------- Sched.poll ---------------------------- *)
(* [Sched.poll n ~ready] must be indistinguishable from the loop it
   replaces: sleep [n], wake, look, sleep again.  One scenario runs both
   ways: pollers take units of host work that an [on_advance] hook feeds
   in at scripted times, beside scripted threads of every priority and
   an optional stop-the-world thread; the hook raises the stop flag at a
   scripted time, on which the pollers exit. *)

type poll_scenario = {
  ncpus : int;
  quantum : int;
  pollers : int;
  interval : int;
  poller_prio : Sched.prio;
  feeds : int list; (* host times at which one unit of work arrives *)
  stop_at : int option;
  stw : bool;
  others : (Sched.prio * (int * int) list) list; (* (op, amount) scripts *)
}

let horizon = 300_000

let simulate ~use_poll sc =
  let s = Sched.create ~quantum:sc.quantum ~ncpus:sc.ncpus () in
  let work = ref 0 in
  let feeds = ref sc.feeds in
  let hook_times = ref [] in
  let log = ref [] in
  Sched.on_advance s (fun now ->
      hook_times := now :: !hook_times;
      let rec feed () =
        match !feeds with
        | t :: rest when t <= now ->
            incr work;
            feeds := rest;
            feed ()
        | _ -> ()
      in
      feed ();
      match sc.stop_at with
      | Some t when t <= now -> Sched.request_stop s
      | _ -> ());
  let ready () = !work > 0 || Sched.stop_requested s in
  for p = 0 to sc.pollers - 1 do
    ignore
      (Sched.spawn s ~name:"poller" ~prio:sc.poller_prio (fun () ->
           while not (Sched.stop_requested s) do
             if !work = 0 then begin
               if use_poll then Sched.poll sc.interval ~ready
               else begin
                 Sched.sleep sc.interval;
                 while not (ready ()) do
                   Sched.sleep sc.interval
                 done
               end;
               log := (p, `Woke, Sched.now s) :: !log
             end
             else begin
               decr work;
               log := (p, `Took, Sched.now s) :: !log;
               Sched.consume s (1_000 + (p * 337))
             end
           done;
           log := (p, `Exit, Sched.now s) :: !log))
  done;
  List.iter
    (fun (prio, ops) ->
      ignore
        (Sched.spawn s ~name:"other" ~prio (fun () ->
             List.iter
               (fun (op, n) ->
                 match op with
                 | 0 -> Sched.consume s n
                 | 1 -> Sched.sleep n
                 | _ -> Sched.yield ())
               ops)))
    sc.others;
  if sc.stw then
    ignore
      (Sched.spawn s ~name:"stw" ~prio:Sched.High (fun () ->
           while not (Sched.stop_requested s) do
             Sched.sleep 20_000;
             Sched.stop_the_world s;
             Sched.consume s 3_000;
             ignore (Sched.restart_world s)
           done));
  Sched.run s ~until:horizon;
  ( List.rev !hook_times,
    List.rev !log,
    List.map
      (fun th -> (Sched.thread_cycles th, Sched.thread_state th))
      (Sched.threads s),
    Sched.idle_cycles s,
    Sched.busy_cycles s,
    Sched.now s )

let poll_scenario_gen =
  let open QCheck.Gen in
  let prio = oneofl [ Sched.High; Sched.Normal; Sched.Low ] in
  let op = pair (int_bound 2) (int_range 1 8_000) in
  let* ncpus = int_range 1 4 in
  let* quantum = oneofl [ 700; 3_000; 20_000; 110_000 ] in
  let* pollers = int_range 1 3 in
  let* interval = int_range 100 6_000 in
  let* poller_prio = oneofl [ Sched.Normal; Sched.Low ] in
  let* feeds = list_size (int_bound 40) (int_bound horizon) in
  let* stop_at = opt (int_bound horizon) in
  let* stw = bool in
  let+ others = list_size (int_bound 4) (pair prio (list_size (int_bound 10) op)) in
  {
    ncpus;
    quantum;
    pollers;
    interval;
    poller_prio;
    feeds = List.sort compare feeds;
    stop_at;
    stw;
    others;
  }

let poll_equals_sleep_loop_test =
  QCheck.Test.make ~name:"Sched.poll == explicit sleep loop" ~count:300
    (QCheck.make poll_scenario_gen)
    (fun sc -> simulate ~use_poll:true sc = simulate ~use_poll:false sc)

let test_poll_exits_on_stop () =
  (* With no work ever fed, a poller returns only on the stop flag: at
     its first wake-up at or after the flag goes up. *)
  let sc =
    {
      ncpus = 2;
      quantum = 110_000;
      pollers = 2;
      interval = 5_000;
      poller_prio = Sched.Normal;
      feeds = [];
      stop_at = Some 42_000;
      stw = false;
      others = [];
    }
  in
  let ((_, log, states, _, _, _) as polled) = simulate ~use_poll:true sc in
  check cb "same as the sleep loop" true (polled = simulate ~use_poll:false sc);
  check cb "both pollers exited" true
    (List.for_all (fun (_, st) -> st = Sched.Dead) states);
  List.iter
    (fun (_, ev, t) ->
      match ev with
      | `Took -> Alcotest.fail "no work was fed"
      | `Woke | `Exit -> check ci "first wake-up after the stop" 45_000 t)
    log

let test_poll_rejects_nonpositive () =
  let s = Sched.create ~ncpus:1 () in
  let raised = ref false in
  ignore
    (Sched.spawn s ~name:"p" ~prio:Sched.Normal (fun () ->
         try Sched.poll 0 ~ready:(fun () -> true)
         with Invalid_argument _ -> raised := true));
  Sched.run s ~until:1_000;
  check cb "poll 0 raises" true !raised

(* ------------------------ Due-driven hooks ------------------------- *)
(* A run with due-driven hooks and quiet stretches must equal the same
   run with an extra every-iteration [on_advance] hook, which forces a
   walk at every iteration and keeps the quiet loop off.  The scenario's
   due-driven hook admits scripted arrivals into a queue that pollers of
   every priority drain, keeps a world-stopped integral that threads
   sample, raises the stop flag at a scripted time and is due at its
   next arrival or stop; a second one, a periodic sampler, is installed
   between two [run] calls.  Sleeps and intervals sit on a coarse grid,
   so wake times often tie. *)

type due_scenario = {
  d_ncpus : int;
  d_quantum : int;
  d_pollers : (Sched.prio * int) list; (* priority, interval *)
  arrivals : int list;
  d_stop_at : int option;
  d_stw : int option; (* the stop-the-world thread's nap *)
  d_others : (Sched.prio * (int * int) list) list;
  splits : int list; (* [run ~until] points before the horizon *)
  sampler : (int * int) option; (* installed after this many runs; period *)
}

let due_horizon = 400_000

let simulate_due ~force sc =
  let s = Sched.create ~quantum:sc.d_quantum ~ncpus:sc.d_ncpus () in
  let work = ref 0 in
  let arrivals = ref sc.arrivals in
  let integral = ref 0 in
  let prev_now = ref 0 in
  let prev_stopped = ref false in
  let admitted = ref [] in
  let log = ref [] in
  Sched.on_advance_due s (fun now ->
      if !prev_stopped then integral := !integral + (now - !prev_now);
      prev_now := now;
      prev_stopped := Sched.world_stopped s;
      let rec admit () =
        match !arrivals with
        | t :: rest when t <= now ->
            incr work;
            arrivals := rest;
            admitted := (t, now, !integral) :: !admitted;
            admit ()
        | _ -> ()
      in
      admit ();
      let next = match !arrivals with t :: _ -> t | [] -> max_int in
      match sc.d_stop_at with
      | Some t when t <= now ->
          Sched.request_stop s;
          next
      | Some t -> Int.min next t
      | None -> next);
  if force then Sched.on_advance s (fun _ -> ());
  let ready () = !work > 0 || Sched.stop_requested s in
  List.iteri
    (fun p (prio, interval) ->
      ignore
        (Sched.spawn s ~name:"poller" ~prio (fun () ->
             while not (Sched.stop_requested s) do
               if !work = 0 then begin
                 Sched.poll interval ~ready;
                 log := (p, `Woke, Sched.now s, !integral) :: !log
               end
               else begin
                 decr work;
                 log := (p, `Took, Sched.now s, !integral) :: !log;
                 Sched.consume s (1_000 + (p * 337))
               end
             done;
             log := (p, `Exit, Sched.now s, !integral) :: !log)))
    sc.d_pollers;
  List.iter
    (fun (prio, ops) ->
      ignore
        (Sched.spawn s ~name:"other" ~prio (fun () ->
             List.iter
               (fun (op, n) ->
                 match op with
                 | 0 -> Sched.consume s n
                 | 1 -> Sched.sleep n
                 | _ -> Sched.yield ())
               ops)))
    sc.d_others;
  Option.iter
    (fun nap ->
      ignore
        (Sched.spawn s ~name:"stw" ~prio:Sched.High (fun () ->
             while not (Sched.stop_requested s) do
               Sched.sleep nap;
               Sched.stop_the_world s;
               log := (-1, `Stopped, Sched.now s, !integral) :: !log;
               Sched.consume s 3_000;
               log := (-1, `Restart, Sched.now s, !integral) :: !log;
               ignore (Sched.restart_world s)
             done)))
    sc.d_stw;
  let samples = ref [] in
  let install_sampler period =
    let due = ref 0 in
    Sched.on_advance_due s (fun now ->
        if now >= !due then begin
          samples := (now, !work, !integral) :: !samples;
          due := ((now / period) + 1) * period
        end;
        !due)
  in
  List.iteri
    (fun i until ->
      (match sc.sampler with
      | Some (k, period) when k = i -> install_sampler period
      | _ -> ());
      Sched.run s ~until)
    (sc.splits @ [ due_horizon ]);
  ( (List.rev !admitted, List.rev !log, List.rev !samples, !integral),
    List.map
      (fun th -> (Sched.thread_cycles th, Sched.thread_state th))
      (Sched.threads s),
    (Sched.idle_cycles s, Sched.busy_cycles s, Sched.debug_cpu_clocks s) )

let due_scenario_gen =
  let open QCheck.Gen in
  let prio = oneofl [ Sched.High; Sched.Normal; Sched.Low ] in
  let grid = map (fun k -> 500 * k) (int_range 1 12) in
  let op =
    let* kind = int_bound 2 in
    let+ n = if kind = 1 then grid else int_range 1 8_000 in
    (kind, n)
  in
  let* d_ncpus = int_range 1 4 in
  let* d_quantum = oneofl [ 700; 3_000; 20_000; 110_000 ] in
  let* d_pollers =
    list_size (int_range 1 4)
      (pair (frequencyl [ (3, Sched.Normal); (1, Sched.Low); (1, Sched.High) ]) grid)
  in
  let* arrivals = list_size (int_bound 40) (int_bound due_horizon) in
  let* d_stop_at = opt (int_range 1 due_horizon) in
  let* d_stw = opt (oneofl [ 5_000; 20_000; 60_000 ]) in
  let* d_others =
    list_size (int_bound 4) (pair prio (list_size (int_bound 10) op))
  in
  let* splits = list_size (int_bound 3) (int_bound due_horizon) in
  let+ sampler = opt (pair (int_bound 3) (oneofl [ 7_000; 25_000 ])) in
  {
    d_ncpus;
    d_quantum;
    d_pollers;
    arrivals = List.sort compare arrivals;
    d_stop_at;
    d_stw;
    d_others;
    splits = List.sort compare splits;
    sampler;
  }

let due_hooks_equal_every_walk_test =
  QCheck.Test.make
    ~name:"due-driven hooks and quiet stretches == a walk at every iteration"
    ~count:400
    (QCheck.make due_scenario_gen)
    (fun sc -> simulate_due ~force:false sc = simulate_due ~force:true sc)

let test_quiet_stretch_skips_walks () =
  (* One poller with nothing to take: every wake-up and idle advance
     between two arrivals is quiet, so the due-driven hook runs at the
     arrivals (and the wake-ups that take them), not at every
     iteration. *)
  let count ~force =
    let s = Sched.create ~ncpus:2 () in
    let calls = ref 0 and iterations = ref 0 in
    let arrivals = ref [ 100_000; 200_000 ] in
    let work = ref 0 in
    Sched.on_advance_due s (fun now ->
        incr calls;
        (match !arrivals with
        | t :: rest when t <= now ->
            incr work;
            arrivals := rest
        | _ -> ());
        match !arrivals with t :: _ -> t | [] -> max_int);
    if force then Sched.on_advance s (fun _ -> incr iterations);
    ignore
      (Sched.spawn s ~name:"poller" ~prio:Sched.Normal (fun () ->
           while true do
             if !work = 0 then Sched.poll 1_000 ~ready:(fun () -> !work > 0)
             else begin
               decr work;
               Sched.consume s 500
             end
           done));
    Sched.run s ~until:300_000;
    (!calls, !iterations, Sched.idle_cycles s)
  in
  let quiet_calls, _, quiet_idle = count ~force:false in
  let forced_calls, iterations, forced_idle = count ~force:true in
  check ci "same idle cycles" forced_idle quiet_idle;
  check ci "forced: a walk per iteration" iterations forced_calls;
  check cb "quiet: a handful of walks" true
    (quiet_calls < 20 && iterations > 500)

(* Priority aging across quiet stretches.  A Low thread is passed over
   by a busy Normal thread until aging boosts it (64 dispatches), is
   preempted back into the queue and passed over 36 more times, then
   runs without a boost when the Normal thread sleeps: it starts to poll
   alone through a quiet stretch with the aging count at 37, not 0.
   Later stretches start at 0, after a boost.  The Normal thread's last
   run starts shortly before one of the poller's wake-ups, so how often
   the poller is passed over, and where its context switches land,
   depends on the count the quiet stretches leave.  Every logged step,
   with its time, must equal the forced every-walk run's. *)
let aging_run ~force =
  let s = Sched.create ~quantum:1_000 ~ncpus:1 () in
  let work = ref 0 and calls = ref 0 and log = ref [] in
  let arrivals = ref [ 1_400_000 ] in
  Sched.on_advance_due s (fun now ->
      incr calls;
      (match !arrivals with
      | t :: rest when t <= now ->
          work := 1;
          arrivals := rest
      | _ -> ());
      match !arrivals with t :: _ -> t | [] -> max_int);
  if force then Sched.on_advance s (fun _ -> ());
  let step who = log := (who, Sched.now s) :: !log in
  ignore
    (Sched.spawn s ~name:"normal" ~prio:Sched.Normal (fun () ->
         for _ = 1 to 100 do
           Sched.consume s 1_000;
           step 0
         done;
         Sched.sleep 300_000;
         for _ = 1 to 150 do
           Sched.consume s 1_000;
           step 0
         done;
         Sched.sleep 650_000;
         for _ = 1 to 150 do
           Sched.consume s 1_000;
           step 0
         done));
  ignore
    (Sched.spawn s ~name:"low" ~prio:Sched.Low (fun () ->
         Sched.consume s 1_000;
         step 1;
         Sched.poll 200_000 ~ready:(fun () -> !work > 0);
         step 1;
         for _ = 1 to 150 do
           Sched.consume s 1_000;
           step 1
         done));
  Sched.run s ~until:2_000_000;
  ( ( List.rev !log,
      Sched.idle_cycles s,
      Sched.busy_cycles s,
      Sched.debug_cpu_clocks s ),
    !calls )

let test_low_poller_aging_across_quiet () =
  let quiet, quiet_calls = aging_run ~force:false in
  let forced, forced_calls = aging_run ~force:true in
  check cb "every step and time equal the forced run" true (quiet = forced);
  (* The Low poller's lone wake-ups during the sleep, and the idle
     advances between them, run in the quiet loop. *)
  check cb "the lone Low poller's wake-ups skip the walk" true
    (forced_calls - quiet_calls > 200)

(* [run ~until] and a hook's due time falling inside idle gaps of many
   quanta (quantum 700, a poller every 6 000 cycles, a sampler due every
   2 450): after every [run] the time of the last hook call (the final
   walk's), the idle cycles and every CPU clock must equal the forced
   run's, and so must the sampler's firing times. *)
let gap_run ~force =
  let s = Sched.create ~quantum:700 ~ncpus:2 () in
  let last = ref (-1) and fired = ref [] and due = ref 0 in
  Sched.on_advance_due s (fun now ->
      last := now;
      if now >= !due then begin
        fired := now :: !fired;
        due := now + 2_450
      end;
      !due);
  if force then Sched.on_advance s (fun _ -> ());
  ignore
    (Sched.spawn s ~name:"poller" ~prio:Sched.Normal (fun () ->
         Sched.poll 6_000 ~ready:(fun () -> false)));
  ignore
    (Sched.spawn s ~name:"burst" ~prio:Sched.Normal (fun () ->
         for _ = 1 to 6 do
           Sched.sleep 17_300;
           Sched.consume s 2_000
         done));
  List.map
    (fun until ->
      Sched.run s ~until;
      (until, !last, Sched.idle_cycles s, Sched.debug_cpu_clocks s))
    [ 10_123; 31_777; 50_000; 83_401; 120_000; 200_000 ],
  List.rev !fired

let test_until_inside_idle_gap () =
  check cb "final walks, idle cycles, clocks, samples" true
    (gap_run ~force:false = gap_run ~force:true)

let () =
  Alcotest.run "sim"
    [
      ( "sched",
        [
          Alcotest.test_case "single thread" `Quick test_single_thread_consumes;
          Alcotest.test_case "threads finish" `Quick test_threads_finish;
          Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup;
          Alcotest.test_case "sleep wakes" `Quick test_sleep_wakes;
          Alcotest.test_case "sleep frees cpu" `Quick test_sleep_frees_cpu;
          Alcotest.test_case "low prio starves under load" `Quick
            test_low_priority_starves_under_load;
          Alcotest.test_case "low prio soaks idle" `Quick
            test_low_priority_uses_idle;
          Alcotest.test_case "preemption" `Quick test_preemption_interleaves;
          Alcotest.test_case "stop the world" `Quick test_stop_the_world;
          Alcotest.test_case "high prio during stop" `Quick
            test_high_prio_runs_during_stop;
          Alcotest.test_case "parallel join" `Quick test_parallel_join;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "run until bound" `Quick test_run_until_bounds;
          Alcotest.test_case "idle accounting" `Quick test_idle_accounting;
          Alcotest.test_case "thread cycles" `Quick test_thread_cycles;
          Alcotest.test_case "poll exits on stop" `Quick test_poll_exits_on_stop;
          Alcotest.test_case "poll rejects a non-positive interval" `Quick
            test_poll_rejects_nonpositive;
          QCheck_alcotest.to_alcotest poll_equals_sleep_loop_test;
          Alcotest.test_case "no thread retention (regression)" `Quick
            test_no_thread_retention;
          Alcotest.test_case "quiet stretch skips walks" `Quick
            test_quiet_stretch_skips_walks;
          Alcotest.test_case "low poller aging across a quiet stretch" `Quick
            test_low_poller_aging_across_quiet;
          Alcotest.test_case "run ends inside an idle gap" `Quick
            test_until_inside_idle_gap;
          QCheck_alcotest.to_alcotest due_hooks_equal_every_walk_test;
        ] );
    ]
