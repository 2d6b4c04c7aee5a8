(* The benchmark command:

     main.exe --workload jbb|serve-gen|fleet [--seed N] [--seconds S]
              [--trace 0|1]

   Makes one verified run, then repeats iterations of three runs from
   one seed (untraced, traced, layer-timed) until --seconds of host time
   are used, each in its own worker process.  It checks that every run
   reproduces the same simulated fingerprint, prints every metric with
   its unit and sample count, and ends with one JSON line: the
   end-to-end metrics under --trace 0, the per-layer metrics under
   --trace 1.  See README.md. *)

module P = Perfbench

let usage =
  "main.exe --workload jbb|serve-gen|fleet [--seed N] [--seconds S] [--trace \
   0|1]"

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let get kvs k = Option.value (List.assoc_opt k kvs) ~default:0.0

(* The first entry where two fingerprints disagree, if any. *)
let mismatch a b =
  if List.map fst a <> List.map fst b then Some "fingerprint keys differ"
  else
    List.find_map
      (fun ((k, x), (_, y)) ->
        if Float.equal x y then None
        else Some (Printf.sprintf "%s: %.17g vs %.17g" k x y))
      (List.combine a b)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  source : string;  (** host or sim *)
  samples : string;
}

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-28s %14.6g %-9s %-4s %s\n" m.name m.value m.unit_
        m.source m.samples)
    ms

let json_line ~correct ~attempted ~failed ms =
  let metric m =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric ms))

(* The runs of one worker process, in the order it made them, and its
   spans with their times relative to the worker's start. *)
type payload = {
  results : (P.kind * (P.run, string * int) result) list;
  spans : P.span list;
  t0 : int;
}

(* A worker makes one iteration (untraced, traced, layer-timed runs) or,
   when [verify], the verified run. *)
let worker w ~seed ~verify =
  Cgc_cluster.Dpool.set_size 1;
  (* At the default space overhead (120) the fleet's peak heap flips
     between seeds, 67 or 88 MB, on whether a finished shard's VM is
     collected before the next one is built; at 80 it is 67 MB for every
     seed tried. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 80 };
  let win = P.default_windows w in
  let t0 = P.now_ns () in
  let one kind =
    Gc.compact ();
    let r, _ =
      P.timed (P.kind_name kind ^ " run") (fun () -> P.run w ~kind ~seed ~win)
    in
    (kind, r)
  in
  let kinds =
    if verify then [ P.Verified ] else [ P.Untraced; P.Traced; P.Layer_timed ]
  in
  let results = List.map one kinds in
  { results; spans = P.spans (); t0 }

(* Runs a worker process and returns its payload; exits if it fails. *)
let run_worker ~workload ~seed ~verify =
  let args =
    [ Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
      "--worker" ]
    @ if verify then [ "--verify" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let payload =
    match (Marshal.from_channel ic : payload) with
    | p -> Some p
    | exception End_of_file -> None
  in
  close_in ic;
  match (Unix.waitpid [] pid, payload) with
  | (_, Unix.WEXITED 0), Some p -> p
  | _ ->
      prerr_endline "perfbench: a worker process failed";
      exit 1

let () =
  let workload = ref "" and seed = ref 1 and secs = ref 10 and trace = ref 0 in
  let as_worker = ref false and verify = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " jbb, serve-gen or fleet");
      ("--seed", Arg.Set_int seed, " workload seed (default 1)");
      ("--seconds", Arg.Set_int secs, " host seconds to measure (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
      ("--worker", Arg.Set as_worker, " internal: run one iteration");
      ("--verify", Arg.Set verify, " internal: the worker makes the verified run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match P.workload_of_name !workload with
    | Some w when !trace = 0 || !trace = 1 -> w
    | _ ->
        prerr_endline usage;
        exit 2
  in
  if !as_worker then begin
    (* The payload owns the pipe; anything else printed goes to stderr. *)
    let out = Unix.out_channel_of_descr (Unix.dup Unix.stdout) in
    Unix.dup2 Unix.stderr Unix.stdout;
    Marshal.to_channel out (worker w ~seed:!seed ~verify:!verify) [];
    close_out out;
    exit 0
  end;
  let win = P.default_windows w in
  (* Host times move by several percent between processes (memory
     placement), so every iteration runs in a fresh worker process.
     Iterate while another iteration, as long as the last, still ends
     within --seconds; stop after a run that raised. *)
  let deadline = P.now_ns () + (!secs * 1_000_000_000) in
  (* The verified run goes first, so that the iterations fill what is
     left of --seconds and the invocation ends on time. *)
  let verified = run_worker ~workload:!workload ~seed:!seed ~verify:true in
  let rec iterate acc =
    let start = P.now_ns () in
    let p = run_worker ~workload:!workload ~seed:!seed ~verify:false in
    let stop = P.now_ns () in
    if
      List.for_all (fun (_, r) -> Result.is_ok r) p.results
      && stop + (stop - start) <= deadline
    then iterate (p :: acc)
    else List.rev (p :: acc)
  in
  let payloads = verified :: iterate [] in
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  let attempted = ref 0 and failed = ref 0 in
  let reference = ref None and reference_obs = ref None in
  let check_same what reference v =
    match !reference with
    | None -> reference := Some v
    | Some r -> (
        match mismatch r v with
        | None -> ()
        | Some d -> problem (what ^ " diverged from the first run: " ^ d))
  in
  (* Every run is checked against the first run's fingerprint; one that
     raised a typed failure fails all it attempted. *)
  let results = List.concat_map (fun p -> p.results) payloads in
  List.iter
    (fun (kind, r) ->
      let name = P.kind_name kind in
      match r with
      | Error (why, n) ->
          attempted := !attempted + n;
          failed := !failed + n;
          Printf.printf "FAILED RUN: %s run raised %s\n" name why;
          (* The verifier must accept every heap state. *)
          if kind = P.Verified then problem ("verified run raised " ^ why)
      | Ok r ->
          attempted := !attempted + r.P.attempted;
          failed := !failed + P.failed r.P.failures;
          List.iter (fun p -> problem (name ^ ": " ^ p)) r.P.problems;
          check_same (name ^ " run") reference r.P.fp;
          if kind = P.Traced then check_same "traced run" reference_obs r.P.obs)
    results;
  let runs kind =
    List.filter_map
      (fun (k, r) -> if k = kind then Result.to_option r else None)
      results
  in
  let verified =
    match runs P.Verified with v :: _ -> Some v | [] -> None
  in
  let us = runs P.Untraced and ts = runs P.Traced and ls = runs P.Layer_timed in
  if us = [] || ts = [] || ls = [] then begin
    List.iter prerr_endline (List.rev !problems);
    prerr_endline "perfbench: no complete iteration, no metrics";
    exit 1
  end;
  let fp = (List.hd us).P.fp and obs = (List.hd ts).P.obs in
  let sim k = get fp k in
  let sim_or_obs k =
    match List.assoc_opt k fp with Some v -> v | None -> get obs k
  in
  let host rs k = median (List.map (fun r -> get r.P.host k) rs) in
  let runs_note rs = Printf.sprintf "median of %d runs" (List.length rs) in
  let m name value unit_ source samples = { name; value; unit_; source; samples } in
  (* A distribution's sample count and the highest percentile the rule
     allows at that count. *)
  let dist_note prefix =
    let n = int_of_float (sim_or_obs (prefix ^ ".n")) in
    match P.tail_percentile n with
    | Some p -> Printf.sprintf "n=%d, rule allows up to p%g" n p
    | None -> Printf.sprintf "n=%d, too few for a tail percentile" n
  in
  (* Request latencies: jbb's are exact in every run; the servers'
     exact ones come from the traced run's Req_done events, which must
     cover the same requests as their histograms. *)
  let req k =
    match List.assoc_opt ("treq." ^ k) obs with
    | Some v -> v
    | None -> sim ("req." ^ k)
  in
  if req "n" <> sim "req.n" then
    problem
      (Printf.sprintf "traced run saw %.0f requests complete, the server %.0f"
         (req "n") (sim "req.n"));
  let tail = P.tail_pct w in
  let req_n = int_of_float (req "n") in
  let tail_note =
    Printf.sprintf "p%g, n=%d, %d beyond" tail req_n (P.beyond ~n:req_n tail)
  in
  let busy = sim "busy_cycles" in
  let window_u = host us "window_s" and window_t = host ts "window_s" in
  let window_l = host ls "window_s" in
  let traced_cost r =
    get r.P.host "window_s" +. get r.P.host "obs.export_s"
    +. get r.P.host "prof.analyse_s"
  in
  (* A run's host time in reference seconds: scaled by how much slower
     than nominal the host ran the reference kernel meanwhile. *)
  let ref_s r secs =
    secs *. P.ref_kernel_nominal_s /. get r.P.host "ref_kernel_s"
  in
  let per_ref_s rs cost =
    median (List.map (fun r -> busy /. 1e6 /. ref_s r (cost r)) rs)
  in
  let setup =
    List.map
      (fun r ->
        ref_s r
          (get r.P.host "workloads.build_s" +. get r.P.host "runtime.warmup_s"))
      us
  in
  let end_to_end =
    [
      m "sim_mcycles_per_ref_s"
        (per_ref_s us (fun r -> get r.P.host "window_s"))
        "Mcycle/ref-s" "host" (runs_note us);
      m "traced_mcycles_per_ref_s" (per_ref_s ts traced_cost) "Mcycle/ref-s"
        "host" (runs_note ts);
      m "setup_s" (median setup) "s" "host"
        (Printf.sprintf "median of %d set-ups" (List.length setup));
      (* Each process's untraced run is its first work. *)
      m "host_peak_mb" (host us "peak_mb") "MB" "host" (runs_note us);
      m "traced_peak_mb" (host ts "peak_mb") "MB" "host" (runs_note ts);
      m "tx_per_sim_s" (sim "tx" /. (sim "window_ms" /. 1000.0)) "1/sim-s" "sim"
        (Printf.sprintf "n=%.0f" (sim "tx"));
      m "pause_p50_ms" (sim_or_obs "pause.p50") "sim-ms" "sim" (dist_note "pause");
      m "pause_max_ms" (sim "pause.max") "sim-ms" "sim" (dist_note "pause");
      m
        (Printf.sprintf "mmu_%.0fms" P.mmu_window_ms)
        (get obs "mmu") "fraction" "sim" "traced run";
      m "req_p50_ms" (req "p50") "sim-ms" "sim" (dist_note "req");
      m "req_tail_ms" (req "tail") "sim-ms" "sim" tail_note;
    ]
  in
  let u = List.hd us in
  let traced_slots = sim "traced_conc_slots" +. sim "traced_stw_slots" in
  let frac a b = if b > 0.0 then a /. b else 0.0 in
  let layer = host ls in
  let obs_overhead = window_t -. window_u in
  let verify_overhead =
    match verified with
    | Some v -> get v.P.host "window_s" -. window_u
    | None -> nan
  in
  let lsim name k unit_ = m name (sim k) unit_ "sim" "" in
  let lhost name k unit_ = m name (layer k) unit_ "host" (runs_note ls) in
  let per_layer =
    [
      m "ref.kernel_us"
        (host (us @ ts) "ref_kernel_s" *. 1e6)
        "us" "host" (runs_note (us @ ts));
      m "sim.mcycles_per_cpu_s" (busy /. window_u /. 1e6) "Mcycle/s" "host"
        (runs_note us);
      m "sim.dispatches" (get (List.hd ls).P.host "sim.dispatches") "count" "sim" "";
      lhost "sim.host_ns_per_dispatch" "sim.host_ns_per_dispatch" "ns";
      m "sim.idle_frac"
        (frac (sim "idle_cycles") (sim "idle_cycles" +. sim "busy_cycles"))
        "fraction" "sim" "";
      lsim "smp.fences" "fences" "count";
      lsim "smp.cas_ops" "cas" "count";
      m "heap.alloc_mslots" (sim "alloc_slots" /. 1e6) "Mslot" "sim" "";
      lsim "packets.ops" "packet_ops" "count";
      lsim "packets.max_in_use" "packets_max_in_use" "count";
      lsim "packets.overflow_events" "overflow_events" "count";
      lhost "core.idle_host_s" "core.idle_host_s" "s";
      lhost "core.marking_host_s" "core.marking_host_s" "s";
      lhost "core.stw_host_s" "core.stw_host_s" "s";
      m "tracer.traced_mslots" (traced_slots /. 1e6) "Mslot" "sim" "";
      m "tracer.stw_share" (frac (sim "traced_stw_slots") traced_slots)
        "fraction" "sim" "";
      lhost "tracer.host_ns_per_slot" "tracer.host_ns_per_slot" "ns";
      m "tracer.retraced_frac" (get (List.hd ls).P.host "tracer.retraced_frac")
        "fraction" "sim" "";
      lsim "cards.cleaned_conc" "cards_conc" "count";
      lsim "cards.cleaned_stw" "cards_stw" "count";
      m "cards.redirtied_frac" (get (List.hd ls).P.host "cards.redirtied_frac")
        "fraction" "sim" "";
      lsim "gc.cycles" "gc_cycles" "count";
      lsim "gc.halted_cycles" "halted_cycles" "count";
      lsim "gc.degrade_rungs" "degrade_rungs" "count";
      lsim "gen.minors" "minors" "count";
      m "gen.promoted_frac" (frac (sim "promoted_slots") (sim "alloc_slots"))
        "fraction" "sim" "";
      lsim "gen.minor_deferred" "minor_deferred" "count";
      lsim "gen.minor_pause_p99_ms" "minor_pause_p99" "sim-ms";
      lhost "gen.minor_host_s" "gen.minor_host_s" "s";
      m "obs.events" (get obs "obs.events") "count" "sim" "traced run";
      m "obs.dropped" (get obs "obs.dropped") "count" "sim" "traced run";
      m "obs.overhead_s" obs_overhead "s" "host" "traced - untraced window";
      m "obs.host_ns_per_event"
        (frac (obs_overhead *. 1e9) (get obs "obs.events"))
        "ns" "host" "";
      m "obs.export_s" (host ts "obs.export_s") "s" "host" (runs_note ts);
      m "prof.analyse_s" (host ts "prof.analyse_s") "s" "host" (runs_note ts);
      m "workloads.build_s" (host (us @ ls) "workloads.build_s") "s" "host"
        (runs_note (us @ ls));
      m "runtime.warmup_s" (host (us @ ls) "runtime.warmup_s") "s" "host"
        (runs_note (us @ ls));
      lsim "server.arrived" "server.arrived" "count";
      lsim "server.completed" "server.completed" "count";
      lsim "server.shed" "server.shed" "count";
      lsim "server.timed_out" "server.timed_out" "count";
      lsim "server.max_depth" "server.max_depth" "count";
      lsim "cluster.retried" "cluster.retried" "count";
      lsim "cluster.redirected" "cluster.redirected" "count";
      lsim "cluster.lost" "cluster.lost" "count";
      lsim "cluster.incarnations" "cluster.incarnations" "count";
      m "bench.hook_overhead_frac" (frac (window_l -. window_u) window_u)
        "fraction" "host" "layer-timed vs untraced window";
      m "verify.overhead_s" verify_overhead "s" "host" "verified - untraced window";
      m "failed_frac"
        (P.failed_frac ~attempted:u.P.attempted u.P.failures)
        "fraction" "sim"
        (Printf.sprintf "%d of %d" (P.failed u.P.failures) u.P.attempted);
    ]
  in
  List.iter
    (fun mt ->
      if not (Float.is_finite mt.value) then
        problem (Printf.sprintf "%s is not a finite number" mt.name))
    (end_to_end @ per_layer);
  Printf.printf
    "perfbench %s, seed %d: one verified run, then %d iterations of untraced \
     + traced + layer-timed runs, each in its own process (%.0f ms warm-up, \
     %.0f ms measured, simulated)\n"
    (P.workload_name w) !seed (List.length us) win.P.warmup_ms win.P.ms;
  let each rs k =
    String.concat " "
      (List.map (fun r -> Printf.sprintf "%.3f" (get r.P.host k)) rs)
  in
  let each1e3 rs k =
    String.concat " "
      (List.map (fun r -> Printf.sprintf "%.3f" (get r.P.host k *. 1e3)) rs)
  in
  Printf.printf
    "measured windows, CPU s: untraced %s; traced %s; layer-timed %s\n"
    (each us "window_s") (each ts "window_s") (each ls "window_s");
  Printf.printf "reference kernel, CPU ms per call: untraced %s; traced %s\n"
    (each1e3 us "ref_kernel_s") (each1e3 ts "ref_kernel_s");
  print_table "end-to-end" end_to_end;
  if P.beyond ~n:req_n tail < 10 then
    Printf.printf "NOTE: req_tail_ms has fewer than ten samples beyond p%g\n"
      tail;
  print_table "per-layer (layer-timed run)" per_layer;
  if !trace = 1 then begin
    print_endline "spans: worker id parent start_ms dur_ms cpu_ms name";
    List.iteri
      (fun k p ->
        List.iter
          (fun (s : P.span) ->
            Printf.printf "  %d %d %d %.3f %.3f %.3f %s\n" k s.P.id
              s.P.parent
              (P.seconds (s.P.start_ns - p.t0) *. 1e3)
              (P.seconds (s.P.stop_ns - s.P.start_ns) *. 1e3)
              (P.seconds s.P.cpu_ns *. 1e3)
              s.P.name)
          (List.sort (fun (a : P.span) b -> compare a.P.id b.P.id) p.spans))
      payloads
  end;
  let problems = List.rev !problems in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  print_endline
    (json_line ~correct:(problems = []) ~attempted:!attempted ~failed:!failed
       (if !trace = 0 then end_to_end else per_layer))
