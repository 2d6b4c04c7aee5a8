(* Section 6.3: the memory cost of the work-packet mechanism.  Because
   packets impose a mostly breadth-first traversal they can hold more
   simultaneous entries than a depth-first mark stack would; the paper
   bounds the requirement with two watermarks — entries in use (lower
   bound) and whole packets in use (upper bound) — and finds it between
   0.11% and 0.25% of the heap (realistically ~0.15%). *)

module Table = Cgc_util.Table
module Config = Cgc_core.Config

let run () =
  Common.hdr "Section 6.3 — Work-packet memory requirements (SPECjbb, 8 warehouses)";
  let ms = if Common.quick () then 2000.0 else 5000.0 in
  let m, _ = Common.specjbb ~label:"CGC" ~gc:Config.default ~ms () in
  let heap_bytes = m.Common.heap_slots * 8 in
  let entry_bytes = 8 in
  let lower = m.Common.pkt_entries_hw * entry_bytes in
  let upper =
    m.Common.pkt_in_use_hw * Config.default.Config.packet_capacity
    * entry_bytes
  in
  let t =
    Table.create ~title:""
      ~header:[ "watermark"; "value"; "bytes"; "% of heap" ]
  in
  Table.add_row t
    [ "entries in use (lower bound)";
      string_of_int m.Common.pkt_entries_hw;
      string_of_int lower;
      Printf.sprintf "%.3f%%" (100.0 *. float_of_int lower /. float_of_int heap_bytes) ];
  Table.add_row t
    [ "packets in use (upper bound)";
      string_of_int m.Common.pkt_in_use_hw;
      string_of_int upper;
      Printf.sprintf "%.3f%%" (100.0 *. float_of_int upper /. float_of_int heap_bytes) ];
  Table.print t;
  Printf.printf "Paper: bounded between 0.11%% and 0.25%% of the heap.\n";
  [ m ]
