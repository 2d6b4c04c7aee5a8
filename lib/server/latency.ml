module Histogram = Cgc_util.Histogram

type sample = {
  queueing_ms : float;
  service_ms : float;
  e2e_ms : float;
  gc_ms : float;
}

let decompose ~cycles_per_ms ~arrival ~start ~finish ~s_arr ~s_start ~s_fin =
  let ms c = float_of_int c /. cycles_per_ms in
  let queueing_ms = ms (start - arrival) in
  let service_ms = ms (finish - start) in
  let e2e_ms = queueing_ms +. service_ms in
  (* Clamp each stopped-world overlap to the interval it can inflate,
     mirroring the integer-exact split in {!Span.blame_of}. *)
  let gc_q = Int.min (start - arrival) (Int.max 0 (s_start - s_arr)) in
  let gc_s = Int.min (finish - start) (Int.max 0 (s_fin - s_start)) in
  let gc_ms = ms (gc_q + gc_s) in
  { queueing_ms; service_ms; e2e_ms; gc_ms }

type t = {
  e2e : Histogram.t;
  queueing : Histogram.t;
  service : Histogram.t;
  gc : Histogram.t;
  mutable handled : int;
  mutable slo_violations : int;
}

let create () =
  {
    e2e = Histogram.create ();
    queueing = Histogram.create ();
    service = Histogram.create ();
    gc = Histogram.create ();
    handled = 0;
    slo_violations = 0;
  }

let observe t ~slo_ms s =
  Histogram.add t.e2e s.e2e_ms;
  Histogram.add t.queueing s.queueing_ms;
  Histogram.add t.service s.service_ms;
  Histogram.add t.gc s.gc_ms;
  t.handled <- t.handled + 1;
  if slo_ms > 0.0 && s.e2e_ms > slo_ms then
    t.slo_violations <- t.slo_violations + 1

let handled t = t.handled
let slo_violations t = t.slo_violations
let e2e t = t.e2e
let queueing t = t.queueing
let service t = t.service
let gc t = t.gc

let merge a b =
  {
    e2e = Histogram.merge a.e2e b.e2e;
    queueing = Histogram.merge a.queueing b.queueing;
    service = Histogram.merge a.service b.service;
    gc = Histogram.merge a.gc b.gc;
    handled = a.handled + b.handled;
    slo_violations = a.slo_violations + b.slo_violations;
  }

let clear t =
  Histogram.clear t.e2e;
  Histogram.clear t.queueing;
  Histogram.clear t.service;
  Histogram.clear t.gc;
  t.handled <- 0;
  t.slo_violations <- 0
