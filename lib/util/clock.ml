type t = {
  mutable base : int;
  mutable used : int;
  mutable tid : int;
  quantum : int;
}

type _ Effect.t += Preempt : unit Effect.t

let manual () = { base = 0; used = 0; tid = 0; quantum = max_int }
let now c = c.base + c.used

(* The simulation is cooperative and single-stacked: while a thread
   runs, nothing else can observe the clock, so a charge that stays
   inside the slice is one field update.  Only a preemption suspends. *)
let spend c n =
  if n > 0 then begin
    if c.tid < 0 then invalid_arg "Clock.spend: no thread is running";
    c.used <- c.used + n;
    if c.used >= c.quantum then Effect.perform Preempt
  end

let tid c =
  if c.tid < 0 then invalid_arg "Clock.tid: no thread is running";
  c.tid
