type mode = Stw | Cgc | Gen

type load_balance = Packets | Stealing

type t = {
  mode : mode;
  k0 : float;
  n_packets : int;
  packet_capacity : int;
  n_background : int;
  card_passes : int;
  lazy_sweep : bool;
  load_balance : load_balance;
  defer_protocol : bool;
  compaction : bool;
  faults : Cgc_fault.Fault.t;
  verify : bool;
}

let default =
  {
    mode = Cgc;
    k0 = 8.0;
    n_packets = 1000;
    packet_capacity = 493;
    n_background = 4;
    card_passes = 1;
    lazy_sweep = false;
    load_balance = Packets;
    defer_protocol = true;
    compaction = false;
    faults = Cgc_fault.Fault.disabled;
    verify = false;
  }

let stw = { default with mode = Stw }
let gen = { default with mode = Gen }

let all_modes = [ Cgc; Gen; Stw ]
let mode_name = function Stw -> "stw" | Cgc -> "cgc" | Gen -> "gen"
let mode_of_name n = List.find_opt (fun m -> mode_name m = n) all_modes

let validate t =
  if t.compaction && t.lazy_sweep then
    Error "compaction requires in-pause sweep"
  else if t.compaction && t.load_balance = Stealing then
    Error "compaction requires the packet tracer"
  else if t.mode = Gen && t.compaction then
    Error
      "gen mode excludes incremental compaction (the compactor would \
       evacuate across the nursery boundary)"
  else if t.mode = Gen && t.lazy_sweep then
    Error
      "gen mode requires in-pause sweep (the lazy cursor would fold the \
       nursery into the free list)"
  else if t.load_balance = Stealing && t.mode <> Stw then
    Error "work stealing drives only the stop-the-world mark"
  else Ok ()
