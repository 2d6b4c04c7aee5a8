(* The cmdliner terms shared by every executable (bin/cgcsim.ml and
   bench/main.ml), declared once so a flag keeps one spelling, one
   default and one converter wherever it appears.  Malformed values are
   rejected by the converters, and [eval] maps every command-line error
   to [Exit_codes.usage]. *)

open Cmdliner

(* The values of [of_string] above [zero]. *)
let positive ~zero what of_string print =
  let parse s =
    match of_string s with
    | Some n when n > zero -> Ok n
    | _ -> Error (Printf.sprintf "expected a positive %s, got %S" what s)
  in
  Arg.conv' (parse, print)

let positive_int = positive ~zero:0 "integer" int_of_string_opt Format.pp_print_int

let positive_float =
  positive ~zero:0.0 "number" float_of_string_opt Format.pp_print_float

(* The two shapes every flag here takes. *)
let opt_arg ?docv c default names doc =
  Arg.(value & opt c default & info names ?docv ~doc)

let flag_arg names doc = Arg.(value & flag & info names ~doc)

let file_arg ?(docv = "FILE") name doc =
  opt_arg ~docv Arg.(some string) None [ name ] doc

let trace_out ?docv
    ?(doc =
      "Write a Chrome trace-event JSON file (load in Perfetto or \
       chrome://tracing).  Arms the event-tracing sink for the run.") () =
  file_arg ?docv "trace-out" doc

let jobs doc = opt_arg ~docv:"N" positive_int 1 [ "jobs"; "j" ] doc

let fast =
  flag_arg [ "fast" ]
    "Fast smoke run: fewer and shorter simulations or measurements."

(* Every command's man page lists the binary's own exit codes. *)
let exits =
  List.map
    (fun (c : Exit_codes.code) -> Cmd.Exit.info c.value ~doc:c.meaning)
    Exit_codes.all

let cmd name ~doc term = Cmd.v (Cmd.info name ~exits ~doc) term

(* Command-line errors — a malformed value, an unknown flag or command,
   an illegal collector combination — exit 1 ([Exit_codes.usage]), not
   cmdliner's 124, so each binary keeps the one exit-code table. *)
let eval cmd =
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok () | `Help | `Version) -> Exit_codes.ok
    | Error (`Parse | `Term) -> Exit_codes.usage
    | Error `Exn -> Cmd.Exit.internal_error)
