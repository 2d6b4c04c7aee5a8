module Sched = Cgc_sim.Sched
module Collector = Cgc_core.Collector
module Config = Cgc_core.Config
module Mctx = Cgc_core.Mctx
module Prng = Cgc_util.Prng
module Fault = Cgc_fault.Fault

type t = {
  sched : Sched.t;
  coll : Collector.t;
  mc : Mctx.t;
  prng : Prng.t;
  on_tx : unit -> unit;
}

let make ~vm_sched ~coll ~mctx ~rng ~on_tx =
  { sched = vm_sched; coll; mc = mctx; prng = rng; on_tx }

let alloc t ~nrefs ~size = Collector.alloc t.coll t.mc ~nrefs ~size

let set_ref t parent i child =
  Collector.set_ref t.coll ~parent ~idx:i ~value:child

let get_ref t parent i = Collector.get_ref t.coll ~parent ~idx:i

let root_set t i v = Mctx.root_set t.mc i v
let root_get t i = Mctx.root_get t.mc i
let n_roots t = Array.length t.mc.Mctx.roots

let work t n = Sched.consume t.sched n
let think _t n = Sched.sleep n

let tx_done t =
  Collector.checkpoint t.coll;
  (* Fault injection at the transaction boundary: an allocation burst
     models a request suddenly building a large temporary structure (the
     objects are dropped immediately — pure pressure); a stall models the
     thread being descheduled mid-transaction. *)
  (let faults = (Collector.config t.coll).Config.faults in
   let burst = Fault.alloc_burst faults in
   for _ = 1 to burst do
     ignore (alloc t ~nrefs:1 ~size:8)
   done;
   let stall = Fault.mutator_stall faults in
   if stall > 0 then Sched.consume t.sched stall);
  t.on_tx ()

let rng t = t.prng
let stopped t = Sched.stop_requested t.sched
let now_cycles t = Sched.now t.sched
let collector t = t.coll
