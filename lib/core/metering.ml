module Ewma = Cgc_util.Ewma

(* Section 3's fixed metering parameters; only K0 is a setting. *)
let kmax_factor = 2.0 (* Kmax = kmax_factor * K0; the paper uses 2 *)
let corrective = 0.5 (* the corrective term C applied when K > K0 *)
let ewma_alpha = 0.5 (* smoothing for the L, M and Best estimators *)
let initial_l_fraction = 0.4 (* initial L estimate, fraction of heap *)
let initial_m_fraction = 0.02 (* initial M estimate, fraction of heap *)

type t = {
  cfg : Config.t;
  l_est : Ewma.t;
  m_est : Ewma.t;
  best : Ewma.t;
}

let create (cfg : Config.t) ~heap_slots =
  let h = float_of_int heap_slots in
  {
    cfg;
    l_est = Ewma.create ~alpha:ewma_alpha ~init:(initial_l_fraction *. h) ();
    m_est = Ewma.create ~alpha:ewma_alpha ~init:(initial_m_fraction *. h) ();
    best = Ewma.create ~alpha:ewma_alpha ~init:0.0 ();
  }

(* Meter-lowball injection scales the L+M view the meter works from, so
   both the kickoff threshold and the increment rate underestimate. *)
let fault_scale t = Cgc_fault.Fault.meter_scale t.cfg.Config.faults

let kickoff_threshold t =
  fault_scale t *. (Ewma.value t.l_est +. Ewma.value t.m_est) /. t.cfg.k0

let should_start t ~free = float_of_int free < kickoff_threshold t

let increment_rate t ~traced ~free =
  let scale = fault_scale t in
  let l = scale *. Ewma.value t.l_est
  and m = scale *. Ewma.value t.m_est in
  let kmax = kmax_factor *. t.cfg.k0 in
  let f = float_of_int (Int.max free 1) in
  let k = (m +. l -. float_of_int traced) /. f in
  if k < 0.0 then
    (* L or M was underestimated: trace flat out at Kmax (section 3.1). *)
    kmax
  else begin
    let k = Float.min k kmax in
    (* Background credit: if the background threads are tracing faster
       than the required rate, the mutators need not trace at all. *)
    let b = Ewma.value t.best in
    let k = if k < b then 0.0 else k -. b in
    (* Corrective boost when behind schedule. *)
    let k =
      if k > t.cfg.k0 then k +. ((k -. t.cfg.k0) *. corrective) else k
    in
    Float.min k (kmax_factor *. kmax)
  end

let increment_work t ~traced ~free ~alloc =
  let k = increment_rate t ~traced ~free in
  int_of_float (ceil (k *. float_of_int alloc))

let observe_background t ~bg_traced ~mutator_alloc =
  if mutator_alloc > 0 then
    Ewma.observe t.best (float_of_int bg_traced /. float_of_int mutator_alloc)

let best t = Ewma.value t.best
let l_estimate t = Ewma.value t.l_est

let end_cycle t ~l_observed ~m_observed =
  Ewma.observe t.l_est (float_of_int l_observed);
  Ewma.observe t.m_est (float_of_int m_observed)
