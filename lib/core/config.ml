type mode = Stw | Cgc | Gen

type load_balance = Packets | Stealing

type t = {
  mode : mode;
  k0 : float;
  kmax_factor : float;
  corrective : float;
  ewma_alpha : float;
  n_packets : int;
  packet_capacity : int;
  n_background : int;
  gc_workers : int;
  cache_slots : int;
  large_object_slots : int;
  card_passes : int;
  lazy_sweep : bool;
  load_balance : load_balance;
  initial_l_fraction : float;
  initial_m_fraction : float;
  bg_chunk : int;
  defer_protocol : bool;
  compaction : bool;
  evac_fraction : float;
  nursery_fraction : float;
  faults : Cgc_fault.Fault.t;
  verify : bool;
}

let default =
  {
    mode = Cgc;
    k0 = 8.0;
    kmax_factor = 2.0;
    corrective = 0.5;
    ewma_alpha = 0.5;
    n_packets = 1000;
    packet_capacity = 493;
    n_background = 4;
    gc_workers = 4;
    cache_slots = 256 (* 2 KB *);
    large_object_slots = 128 (* 1 KB *);
    card_passes = 1;
    lazy_sweep = false;
    load_balance = Packets;
    initial_l_fraction = 0.4;
    initial_m_fraction = 0.02;
    bg_chunk = 512;
    defer_protocol = true;
    compaction = false;
    evac_fraction = 1.0 /. 16.0;
    nursery_fraction = 0.125;
    faults = Cgc_fault.Fault.disabled;
    verify = false;
  }

let stw = { default with mode = Stw }
let gen = { default with mode = Gen }

let mode_name = function Stw -> "stw" | Cgc -> "cgc" | Gen -> "gen"

let mode_of_name = function
  | "stw" -> Some Stw
  | "cgc" -> Some Cgc
  | "gen" -> Some Gen
  | _ -> None

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
