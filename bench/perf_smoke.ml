(* The perf-smoke gate's command:

     dune exec bench/perf_smoke.exe -- bench/baselines/perfbench.json DIR

   For every workload W of the baseline it reads DIR/perfbench-W.jsonl,
   the JSON lines perfbench printed for W (see perf_gate.ml), prints one
   line per check and exits 1 if any check failed. *)

module Json = Cgc_prof.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all

let () =
  match Sys.argv with
  | [| _; baseline; dir |] ->
      let baseline =
        match Json.parse (read_file baseline) with
        | Ok j -> j
        | Error e ->
            Printf.eprintf "perf-smoke: %s: %s\n" baseline e;
            exit 1
      in
      let outputs =
        match baseline with
        | Json.Obj ws ->
            List.filter_map
              (fun (w, _) ->
                let path = Filename.concat dir ("perfbench-" ^ w ^ ".jsonl") in
                if Sys.file_exists path then
                  Some
                    ( w,
                      String.split_on_char '\n' (read_file path)
                      |> List.filter (( <> ) "") )
                else None)
              ws
        | _ -> []
      in
      let results = Perf_gate.check ~baseline outputs in
      List.iter
        (fun (ok, s) -> Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") s)
        results;
      if List.for_all fst results then print_endline "perf smoke OK"
      else begin
        print_endline "perf smoke FAIL";
        exit 1
      end
  | _ ->
      prerr_endline "usage: perf_smoke.exe BASELINE DIR";
      exit 1
