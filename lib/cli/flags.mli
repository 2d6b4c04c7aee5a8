(** The cmdliner terms shared by every executable ([bin/cgcsim.ml] and
    [bench/main.ml]), declared once so a flag keeps one spelling, one
    default and one converter wherever it appears. *)

open Cmdliner

val positive_int : int Arg.conv
(** An integer above 0; anything else is a usage error. *)

val positive_float : float Arg.conv
(** A number above 0.0; anything else is a usage error. *)

val opt_arg :
  ?docv:string -> 'a Arg.conv -> 'a -> string list -> string -> 'a Term.t
(** [opt_arg c default names doc]: an optional flag named [names],
    converted by [c], [default] when absent. *)

val flag_arg : string list -> string -> bool Term.t
(** A boolean flag, [true] when present. *)

val file_arg : ?docv:string -> string -> string -> string option Term.t
(** [file_arg name doc]: an optional [--name FILE] path. *)

val trace_out : ?docv:string -> ?doc:string -> unit -> string option Term.t
(** [--trace-out FILE], the Chrome trace-event output. *)

val jobs : string -> int Term.t
(** [--jobs N] / [-j N], host domains (default 1); [doc] says what they
    run. *)

val fast : bool Term.t
(** [--fast], the fast smoke run. *)

val exits : Cmd.Exit.info list
(** The binary's exit-code table ({!Exit_codes.all}), for man pages. *)

val cmd : string -> doc:string -> 'a Term.t -> 'a Cmd.t
(** A sub-command whose man page lists {!exits}. *)

val eval : unit Cmd.t -> 'a
(** Run [cmd] and exit: 0 on success or help, {!Exit_codes.usage} on
    any command-line error, cmdliner's internal-error code on an
    uncaught exception. *)
