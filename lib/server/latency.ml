module Histogram = Cgc_util.Histogram

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

let observe t ~slo_ms ~cycles_per_ms (b : Span.blame) =
  let ms c = float_of_int c /. cycles_per_ms in
  let queueing_ms = ms (b.Span.backoff + b.Span.queue + b.Span.gc_queue) in
  let service_ms = ms (b.Span.service + b.Span.gc_service) in
  let e2e_ms = queueing_ms +. service_ms in
  Histogram.add t.e2e e2e_ms;
  Histogram.add t.queueing queueing_ms;
  Histogram.add t.service service_ms;
  Histogram.add t.gc (ms (b.Span.gc_queue + b.Span.gc_service));
  t.handled <- t.handled + 1;
  if slo_ms > 0.0 && e2e_ms > slo_ms then
    t.slo_violations <- t.slo_violations + 1;
  e2e_ms

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
