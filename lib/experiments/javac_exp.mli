(** The section 6.1 javac run: a uniprocessor with one background
    collector thread.  Returns the STW and the CGC record. *)

val run : unit -> Common.metrics list
