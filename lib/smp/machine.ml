type t = {
  cost : Cost.t;
  wm : Weakmem.t;
  fences : Fence.counters;
  obs : Cgc_obs.Obs.t;
  mutable cas_ops : int;
  mutable debt : int;
  now : unit -> int;
  spend : int -> unit;
  cpu : unit -> int;
  relinquish : unit -> unit;
}

let create ?(obs = Cgc_obs.Obs.null) ~wm ~now ~spend ~cpu
    ?(relinquish = fun () -> ()) () =
  { cost = Cost.default; wm; fences = Fence.create (); obs; cas_ops = 0;
    debt = 0; now; spend; cpu; relinquish }

let testing ?(mode = Weakmem.Sc) ?(seed = 42) () =
  let clock = ref 0 in
  let wm = Weakmem.create ~mode ~rng:(Cgc_util.Prng.create seed) () in
  create ~wm
    ~now:(fun () -> !clock)
    ~spend:(fun n -> clock := !clock + n)
    ~cpu:(fun () -> 0)
    ()

let testing_multi ?(mode = Weakmem.Relaxed) ?(seed = 42) () =
  let clock = ref 0 in
  let cpu = ref 0 in
  let wm = Weakmem.create ~mode ~rng:(Cgc_util.Prng.create seed) () in
  let m =
    create ~wm
      ~now:(fun () -> !clock)
      ~spend:(fun n -> clock := !clock + n)
      ~cpu:(fun () -> !cpu)
      ()
  in
  (m, clock, cpu)

let charge t n = t.debt <- t.debt + n

let flush t =
  if t.debt > 0 then begin
    let d = t.debt in
    t.debt <- 0;
    t.spend d
  end

let fence t site =
  Fence.count t.fences site;
  Cgc_obs.Obs.instant t.obs ~arg:(Fence.site_index site) Cgc_obs.Event.Fence_flush;
  charge t t.cost.Cost.fence;
  Weakmem.fence t.wm ~cpu:(t.cpu ()) ~now:(t.now ())

let cas t =
  t.cas_ops <- t.cas_ops + 1;
  charge t t.cost.Cost.cas

let now t = t.now ()
let cpu t = t.cpu ()
