(* The perf-smoke gate: compares perfbench's JSON lines for each workload
   with the committed baseline, bench/baselines/perfbench.json, which
   maps each workload to its gated metrics:

     {"jbb": {"tracer.host_ns_per_slot":
                {"value": 20.51, "tolerance": 0.4, "better": "lower"}, ...}, ...}

   A metric fails when it is worse than [value] by more than the fraction
   [tolerance].  Per-layer host times are raw CPU or clock seconds, so
   the metrics of a line carrying [ref.kernel_us] are first scaled the
   way perfbench scales its end-to-end throughput: by the reference
   kernel's nominal time per call over its measured time.  A workload
   also fails on missing output, an unparsable line, [correct: false],
   a failed operation, or a gated metric missing from its lines. *)

module Json = Cgc_prof.Json

let nominal_kernel_us = Perfbench.ref_kernel_nominal_s *. 1e6

let number = function
  | Some (Json.Int n) -> Some (float_of_int n)
  | Some (Json.Float x) -> Some x
  | _ -> None

(* One perfbench line's problems and its (scaled) metrics. *)
let read_line line =
  match Json.parse line with
  | Error e -> ([ "unparsable perfbench line: " ^ e ], [])
  | Ok j ->
      let problems =
        (if Json.member "correct" j = Some (Json.Bool true) then []
         else [ "perfbench reports correct: false" ])
        @
        match number (Json.member "failed" j) with
        | Some 0.0 -> []
        | Some f -> [ Printf.sprintf "perfbench failed %.0f operations" f ]
        | None -> [ "perfbench reports no failed count" ]
      in
      let metrics =
        match Json.member "metrics" j with
        | Some (Json.Obj ms) ->
            List.filter_map
              (fun (k, m) ->
                Option.map (fun v -> (k, v)) (number (Json.member "value" m)))
              ms
        | _ -> []
      in
      let scale =
        match List.assoc_opt "ref.kernel_us" metrics with
        | Some k when k > 0.0 -> nominal_kernel_us /. k
        | _ -> 1.0
      in
      ( problems,
        List.map
          (fun (name, v) ->
            (name, if name = "ref.kernel_us" then v else v *. scale))
          metrics )

(* One gated metric's verdict and its line, without the workload. *)
let verdict measured (metric, spec) =
  let line ok fmt = Printf.ksprintf (fun s -> (ok, metric ^ ": " ^ s)) fmt in
  match
    ( number (Json.member "value" spec),
      number (Json.member "tolerance" spec),
      Json.member "better" spec,
      List.assoc_opt metric measured )
  with
  | Some base, Some tol, Some (Json.Str (("higher" | "lower") as better)), Some v
    ->
      let ok =
        if better = "higher" then v >= base *. (1.0 -. tol)
        else v <= base *. (1.0 +. tol)
      in
      line ok "%.4g against baseline %.4g, tolerance %.0f%% (%s is better)" v
        base (100.0 *. tol) better
  | Some _, Some _, Some (Json.Str ("higher" | "lower")), None ->
      line false "missing from perfbench output"
  | _ -> line false "malformed baseline entry"

let check_workload w gated lines =
  let named (ok, s) = (ok, w ^ " " ^ s) in
  match lines with
  | None | Some [] -> [ named (false, "has no perfbench output") ]
  | Some lines ->
      let read = List.map read_line lines in
      let measured = List.concat_map snd read in
      List.concat_map (fun (ps, _) -> List.map (fun p -> named (false, p)) ps) read
      @ List.map (fun g -> named (verdict measured g)) gated

let check ~baseline outputs =
  match baseline with
  | Json.Obj workloads ->
      List.concat_map
        (fun (w, gated) ->
          match gated with
          | Json.Obj gated -> check_workload w gated (List.assoc_opt w outputs)
          | _ -> [ (false, w ^ " has a malformed baseline") ])
        workloads
  | _ -> [ (false, "the baseline is not an object of workloads") ]
