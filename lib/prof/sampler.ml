type probe = { fn : unit -> float; s : Series.t }

type t = {
  interval : int;
  mutable probes : probe list;  (* reverse registration order *)
  mutable due : int;
  mutable nticks : int;
}

let create ~interval () =
  { interval = max 1 interval; probes = []; due = 0; nticks = 0 }

let interval t = t.interval

let add_probe t ~name fn =
  let s = Series.create ~name () in
  t.probes <- { fn; s } :: t.probes

let tick t ~now =
  if now >= t.due then begin
    (* One sample per tick, at the latest interval boundary, so
       a clock that jumps several intervals at once (a long pause, an
       idle stretch) does not fabricate a burst of identical samples. *)
    let ts = now / t.interval * t.interval in
    t.nticks <- t.nticks + 1;
    List.iter (fun p -> Series.add p.s (p.fn ())) (List.rev t.probes);
    t.due <- ts + t.interval
  end

let due t = t.due
let ticks t = t.nticks
let series t = List.rev_map (fun p -> p.s) t.probes
let find t name = List.find_opt (fun s -> Series.name s = name) (series t)

let clear t =
  List.iter (fun p -> Series.clear p.s) t.probes;
  t.nticks <- 0;
  t.due <- 0
