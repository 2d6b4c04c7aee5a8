module Prng = Cgc_util.Prng
module Clock = Cgc_util.Clock
module Obs = Cgc_obs.Obs
module Event = Cgc_obs.Event

type scenario =
  | Packet_starvation
  | Alloc_burst
  | Mutator_stall
  | Meter_lowball
  | Card_storm
  | Bg_stall

let index = function
  | Packet_starvation -> 0
  | Alloc_burst -> 1
  | Mutator_stall -> 2
  | Meter_lowball -> 3
  | Card_storm -> 4
  | Bg_stall -> 5

(* One row per scenario, in [index] order: the scenario, its CLI name and
   its one-line description. *)
let table =
  [|
    ( Packet_starvation,
      "packet-starvation",
      "periodic windows where the packet pool pretends to be empty" );
    ( Alloc_burst,
      "alloc-burst",
      "occasional bursts of extra garbage allocation" );
    ( Mutator_stall,
      "mutator-stall",
      "occasional long mutator stalls mid-allocation" );
    ( Meter_lowball,
      "meter-lowball",
      "metering rate estimates scaled down (late, lazy cycles)" );
    (Card_storm, "card-storm", "periodic mass dirtying of random cards");
    (Bg_stall, "bg-stall", "background tracing threads repeatedly oversleep");
  |]

let all = Array.to_list (Array.map (fun (s, _, _) -> s) table)
let n_scenarios = Array.length table
let to_name s = let _, n, _ = table.(index s) in n
let describe s = let _, _, d = table.(index s) in d
let of_name n = List.find_opt (fun s -> to_name s = n) all

(* Timing/magnitude constants, in simulated cycles (the default cost
   model runs 550_000 cycles per simulated millisecond). *)
let starve_period = 1_100_000 (* a starvation window every ~2 ms... *)
let starve_window = 165_000 (* ...lasting ~0.3 ms *)
let storm_period = 1_650_000 (* a card storm every ~3 ms *)
let meter_emit_period = 2_750_000 (* trace marker every ~5 ms of lowball *)
let lowball_factor = 0.35

type armed = {
  rng : Prng.t;
  the_seed : int;
  active : bool array; (* by scenario index; read-only, so copies share it *)
  counts : int array;
  last_period : int array; (* last period index that fired, per site *)
  clock : Clock.t;
  obs : Obs.t;
}

type t = Disabled | Armed of armed

let disabled = Disabled

let make ~active ~seed ~clock ~obs =
  Armed
    {
      rng = Prng.create (seed lxor 0x0fa317_1417);
      the_seed = seed;
      active;
      counts = Array.make n_scenarios 0;
      last_period = Array.make n_scenarios (-1);
      clock;
      obs;
    }

let create ?(scenarios = all) ~seed () =
  let active = Array.make n_scenarios false in
  List.iter (fun s -> active.(index s) <- true) scenarios;
  make ~active ~seed ~clock:(Clock.manual ()) ~obs:Obs.null

let arm t ~clock ~obs =
  match t with
  | Disabled -> Disabled
  | Armed a -> make ~active:a.active ~seed:a.the_seed ~clock ~obs

let enabled = function Disabled -> false | Armed _ -> true

let seed = function Disabled -> 0 | Armed a -> a.the_seed

let injections t =
  match t with
  | Disabled -> []
  | Armed a ->
      List.filter_map
        (fun s ->
          if a.active.(index s) then Some (s, a.counts.(index s)) else None)
        all

let total_injections t =
  match t with Disabled -> 0 | Armed a -> Array.fold_left ( + ) 0 a.counts

let fire a s =
  let i = index s in
  a.counts.(i) <- a.counts.(i) + 1;
  Obs.instant a.obs ~arg:i Event.Fault_inject

(* Continuous (window-based) sites count — and mark in the trace — each
   entered window once, keyed by the period index. *)
let fire_window a s ~period =
  let i = index s in
  let w = Clock.now a.clock / period in
  if a.last_period.(i) <> w then begin
    a.last_period.(i) <- w;
    fire a s
  end

let starve_packets t =
  match t with
  | Disabled -> false
  | Armed a when not a.active.(index Packet_starvation) -> false
  | Armed a ->
      if Clock.now a.clock mod starve_period < starve_window then begin
        fire_window a Packet_starvation ~period:starve_period;
        true
      end
      else false

let alloc_burst t =
  match t with
  | Disabled -> 0
  | Armed a when not a.active.(index Alloc_burst) -> 0
  | Armed a ->
      if Prng.chance a.rng 0.004 then begin
        fire a Alloc_burst;
        4 + Prng.int a.rng 13
      end
      else 0

let mutator_stall t =
  match t with
  | Disabled -> 0
  | Armed a when not a.active.(index Mutator_stall) -> 0
  | Armed a ->
      if Prng.chance a.rng 0.0015 then begin
        fire a Mutator_stall;
        25_000 + Prng.int a.rng 250_000
      end
      else 0

let meter_scale t =
  match t with
  | Disabled -> 1.0
  | Armed a when not a.active.(index Meter_lowball) -> 1.0
  | Armed a ->
      fire_window a Meter_lowball ~period:meter_emit_period;
      lowball_factor

let card_storm t ~ncards =
  match t with
  | Disabled -> []
  | Armed a when not a.active.(index Card_storm) -> []
  | Armed a ->
      let i = index Card_storm in
      let w = Clock.now a.clock / storm_period in
      if a.last_period.(i) = w then []
      else begin
        a.last_period.(i) <- w;
        fire a Card_storm;
        let n = min 4096 (max 16 (ncards / 8)) in
        List.init n (fun _ -> Prng.int a.rng ncards)
      end

let bg_stall t =
  match t with
  | Disabled -> 0
  | Armed a when not a.active.(index Bg_stall) -> 0
  | Armed a ->
      if Prng.chance a.rng 0.08 then begin
        fire a Bg_stall;
        100_000 + Prng.int a.rng 400_000
      end
      else 0
