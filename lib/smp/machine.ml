module Clock = Cgc_util.Clock

type t = {
  cost : Cost.t;
  wm : Weakmem.t;
  fences : Fence.counters;
  obs : Cgc_obs.Obs.t;
  mutable cas_ops : int;
  mutable debt : int;
  clock : Clock.t;
  relinquish : unit -> unit;
}

let create ?(obs = Cgc_obs.Obs.null) ~wm ~clock ?(relinquish = fun () -> ())
    () =
  { cost = Cost.default; wm; fences = Fence.create (); obs; cas_ops = 0;
    debt = 0; clock; relinquish }

let testing ?(mode = Weakmem.Sc) ?(seed = 42) () =
  let wm = Weakmem.create ~mode ~rng:(Cgc_util.Prng.create seed) () in
  create ~wm ~clock:(Clock.manual ()) ()

let charge t n = t.debt <- t.debt + n

let flush t =
  if t.debt > 0 then begin
    let d = t.debt in
    t.debt <- 0;
    Clock.spend t.clock d
  end

let fence t site =
  Fence.count t.fences site;
  Cgc_obs.Obs.instant t.obs ~arg:(Fence.site_index site) Cgc_obs.Event.Fence_flush;
  charge t t.cost.Cost.fence;
  Weakmem.fence t.wm ~cpu:(Clock.tid t.clock) ~now:(Clock.now t.clock)

let cas t =
  t.cas_ops <- t.cas_ops + 1;
  charge t t.cost.Cost.cas

let now t = Clock.now t.clock
let cpu t = Clock.tid t.clock
