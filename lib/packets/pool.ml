module Machine = Cgc_smp.Machine
module Obs = Cgc_obs.Obs
module Obs_event = Cgc_obs.Event
module Fence = Cgc_smp.Fence
module Cost = Cgc_smp.Cost
module Fault = Cgc_fault.Fault

(* Sub-pool indices *)
let sp_empty = 0
let sp_nonempty = 1
let sp_almost = 2
let sp_deferred = 3

type t = {
  mach : Machine.t;
  packets : Packet.t array;
  subs : Packet.t list array;
  counters : int array;
  cap : int;
  fence_on_put : bool;
  naive_mark_fence : bool;
  faults : Fault.t;
  mutable hw_in_use : int;
  mutable n_entries : int;
  mutable hw_entries : int;
  mutable hw_deferred : int;
  mutable gets : int;
  mutable puts : int;
}

(* Mutation of t.subs is not concurrent in the host (the simulator is
   single-threaded); CAS costs are charged to model what the real
   structure would pay. *)

let create ?(fence_on_put = true) ?(naive_mark_fence = false)
    ?(faults = Fault.disabled) mach ~n_packets ~capacity =
  if n_packets < 2 then invalid_arg "Pool.create: need at least 2 packets";
  let packets =
    Array.init n_packets (fun _ -> Packet.make mach ~capacity)
  in
  let t =
    {
      mach;
      packets;
      subs = [| Array.to_list packets; []; []; [] |];
      counters = [| n_packets; 0; 0; 0 |];
      cap = capacity;
      fence_on_put;
      naive_mark_fence;
      faults;
      hw_in_use = 0;
      n_entries = 0;
      hw_entries = 0;
      hw_deferred = 0;
      gets = 0;
      puts = 0;
    }
  in
  t

let machine t = t.mach
let naive_mark_fence t = t.naive_mark_fence
let total t = Array.length t.packets

let classify t p =
  let n = Packet.count p in
  if n = 0 then sp_empty else if 2 * n < t.cap then sp_nonempty else sp_almost

(* One CAS on the list head, one on the counter (section 4.2/4.3). *)
let charge_op t =
  Machine.charge t.mach t.mach.Machine.cost.Cost.packet_op;
  Machine.cas t.mach;
  Machine.cas t.mach

let take_from t sp =
  match t.subs.(sp) with
  | [] -> None
  | p :: rest ->
      t.subs.(sp) <- rest;
      t.counters.(sp) <- t.counters.(sp) - 1;
      charge_op t;
      t.gets <- t.gets + 1;
      if sp = sp_empty then begin
        let in_use = Array.length t.packets - t.counters.(sp_empty) in
        if in_use > t.hw_in_use then t.hw_in_use <- in_use
      end;
      Some p

(* An open starvation window makes the pool answer None while still
   charging the failed probe, so simulated time keeps advancing (the
   window closes even for a thread spinning on the pool). *)
let starved t =
  if Fault.starve_packets t.faults then begin
    Machine.charge t.mach t.mach.Machine.cost.Cost.packet_op;
    true
  end
  else false

let get_input t =
  if starved t then None
  else
    let got =
      match take_from t sp_almost with
      | Some p -> Some p
      | None -> take_from t sp_nonempty
    in
    (match got with
    | Some p ->
        Obs.instant t.mach.Machine.obs ~arg:(Packet.count p)
          Obs_event.Packet_get
    | None -> ());
    got

let get_output t =
  if starved t then None
  else
  match take_from t sp_empty with
  | Some p -> Some p
  | None -> (
      match take_from t sp_nonempty with
      | Some p -> Some p
      | None -> (
          (* An almost-full packet can serve as output only if it is not
             totally full. *)
          match t.subs.(sp_almost) with
          | p :: _ when not (Packet.is_full p) -> take_from t sp_almost
          | _ -> None))

let put_into t sp p =
  t.subs.(sp) <- p :: t.subs.(sp);
  t.counters.(sp) <- t.counters.(sp) + 1;
  charge_op t;
  t.puts <- t.puts + 1

let put t p =
  if t.fence_on_put && not (Packet.is_empty p) && not t.naive_mark_fence then
    Machine.fence t.mach Fence.Packet_return;
  Obs.instant t.mach.Machine.obs ~arg:(Packet.count p) Obs_event.Packet_put;
  put_into t (classify t p) p

let put_deferred t p =
  if t.fence_on_put && not (Packet.is_empty p) && not t.naive_mark_fence then
    Machine.fence t.mach Fence.Packet_return;
  Obs.instant t.mach.Machine.obs ~arg:(Packet.count p) Obs_event.Packet_defer;
  put_into t sp_deferred p;
  if t.counters.(sp_deferred) > t.hw_deferred then
    t.hw_deferred <- t.counters.(sp_deferred)

let recycle_deferred t =
  let moved = ref 0 in
  let rec go () =
    match t.subs.(sp_deferred) with
    | [] -> ()
    | p :: rest ->
        t.subs.(sp_deferred) <- rest;
        t.counters.(sp_deferred) <- t.counters.(sp_deferred) - 1;
        charge_op t;
        put_into t (classify t p) p;
        incr moved;
        go ()
  in
  go ();
  if !moved > 0 then
    Obs.instant t.mach.Machine.obs ~arg:!moved Obs_event.Packet_recycle;
  !moved

let deferred_count t = t.counters.(sp_deferred)
let max_deferred t = t.hw_deferred

let push t p v =
  let ok = Packet.push p v in
  if ok then begin
    if t.naive_mark_fence then Machine.fence t.mach Fence.Naive_mark;
    t.n_entries <- t.n_entries + 1;
    if t.n_entries > t.hw_entries then t.hw_entries <- t.n_entries
  end;
  ok

let terminated t = t.counters.(sp_empty) = Array.length t.packets

let counts t =
  (t.counters.(sp_empty), t.counters.(sp_nonempty), t.counters.(sp_almost),
   t.counters.(sp_deferred))

let no_entry = Packet.no_entry

let pop_raw t p =
  let v = Packet.pop_raw p in
  if v <> Packet.no_entry then t.n_entries <- t.n_entries - 1;
  v

let pop t p =
  match Packet.pop p with
  | None -> None
  | Some v ->
      t.n_entries <- t.n_entries - 1;
      Some v

let in_use t = Array.length t.packets - t.counters.(sp_empty)
let max_in_use t = t.hw_in_use
let entries t = t.n_entries
let max_entries t = t.hw_entries

type occupancy = {
  occ_empty : int;
  occ_nonempty : int;
  occ_almost_full : int;
  occ_deferred : int;
  occ_in_use : int;
  occ_entries : int;
}

let occupancy t =
  {
    occ_empty = t.counters.(sp_empty);
    occ_nonempty = t.counters.(sp_nonempty);
    occ_almost_full = t.counters.(sp_almost);
    occ_deferred = t.counters.(sp_deferred);
    occ_in_use = in_use t;
    occ_entries = t.n_entries;
  }
let get_ops t = t.gets
let put_ops t = t.puts

let reset_watermarks t =
  t.hw_in_use <- in_use t;
  t.hw_entries <- t.n_entries;
  t.hw_deferred <- t.counters.(sp_deferred)
