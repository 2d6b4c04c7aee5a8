(* The host profiler's command line: a sampling profile of the
   simulator's own host time.  Host speed is perfbench's; the paper's
   tables, figures and ablations are `cgcsim experiment NAME`.

     dune exec bench/main.exe -- profile --workload jbb --ms 2000

   The flags are Cgc_cli.Flags' shared cmdliner terms, so a malformed
   value exits 1, as it does for cgcsim. *)

open Cmdliner
open Term.Syntax
open Cgc_cli.Flags

let profile_cmd =
  cmd "profile" ~doc:"Sample the simulator's own host time over one workload."
    (let+ workload =
       opt_arg
         (Arg.enum (List.map (fun (w, _) -> (w, w)) Profile.workloads))
         "jbb" [ "workload" ] "Workload: jbb, serve or fleet."
     and+ ms =
       opt_arg positive_float 2000.0 [ "ms" ]
         "Simulated milliseconds sampled after the warm-up."
     in
     Profile.run ~workload ~ms)

let () =
  eval
    (Cmd.group
       (Cmd.info "bench" ~exits ~doc:"The cgcsim host profiler.")
       [ profile_cmd ])
