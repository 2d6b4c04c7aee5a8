type code =
  | Cycle_start
  | Cycle_end
  | Conc_mark
  | Stw_pause
  | Stw_mark
  | Stw_sweep
  | Stw_compact
  | Mut_increment
  | Bg_chunk
  | Root_scan
  | Card_pass
  | Card_clean_conc
  | Card_clean_stw
  | Packet_get
  | Packet_put
  | Packet_defer
  | Packet_recycle
  | Packet_steal
  | Sweep_chunk
  | Fence_flush
  | Alloc_failure
  | Fault_inject
  | Degrade_force_finish
  | Degrade_full_stw
  | Degrade_compact
  | Oom
  | Verify_pass
  | Incr_factor
  | Req_arrive
  | Req_start
  | Req_done
  | Req_shed
  | Req_timeout
  | Req_retry
  | Req_redirect
  | Req_hedge
  | Cluster_fault
  | Minor_start
  | Minor_done
  | Promote
  | Nursery_fill

type t = { ts : int; dur : int; tid : int; code : code; arg : int }

(* The one map from code to integer: compiler-checked, so every code has
   an index, and flat per-code arrays need no hash. *)
let index = function
  | Cycle_start -> 0
  | Cycle_end -> 1
  | Conc_mark -> 2
  | Stw_pause -> 3
  | Stw_mark -> 4
  | Stw_sweep -> 5
  | Stw_compact -> 6
  | Mut_increment -> 7
  | Bg_chunk -> 8
  | Root_scan -> 9
  | Card_pass -> 10
  | Card_clean_conc -> 11
  | Card_clean_stw -> 12
  | Packet_get -> 13
  | Packet_put -> 14
  | Packet_defer -> 15
  | Packet_recycle -> 16
  | Packet_steal -> 17
  | Sweep_chunk -> 18
  | Fence_flush -> 19
  | Alloc_failure -> 20
  | Fault_inject -> 21
  | Degrade_force_finish -> 22
  | Degrade_full_stw -> 23
  | Degrade_compact -> 24
  | Oom -> 25
  | Verify_pass -> 26
  | Incr_factor -> 27
  | Req_arrive -> 28
  | Req_start -> 29
  | Req_done -> 30
  | Req_shed -> 31
  | Req_timeout -> 32
  | Req_retry -> 33
  | Req_redirect -> 34
  | Req_hedge -> 35
  | Cluster_fault -> 36
  | Minor_start -> 37
  | Minor_done -> 38
  | Promote -> 39
  | Nursery_fill -> 40

(* One row per code, in [index] order: the code, its trace name and its
   category. *)
let table =
  [|
    (Cycle_start, "cycle-start", "cycle");
    (Cycle_end, "cycle-end", "cycle");
    (Conc_mark, "concurrent-mark", "phase");
    (Stw_pause, "stw-pause", "pause");
    (Stw_mark, "stw-mark", "pause");
    (Stw_sweep, "stw-sweep", "pause");
    (Stw_compact, "stw-compact", "pause");
    (Mut_increment, "mutator-increment", "phase");
    (Bg_chunk, "background-chunk", "phase");
    (Root_scan, "root-scan", "root");
    (Card_pass, "card-pass", "card");
    (Card_clean_conc, "card-clean-concurrent", "card");
    (Card_clean_stw, "card-clean-stw", "card");
    (Packet_get, "packet-get", "packet");
    (Packet_put, "packet-put", "packet");
    (Packet_defer, "packet-defer", "packet");
    (Packet_recycle, "packet-recycle", "packet");
    (Packet_steal, "packet-steal", "packet");
    (Sweep_chunk, "sweep-chunk", "sweep");
    (Fence_flush, "fence-flush", "fence");
    (Alloc_failure, "alloc-failure", "cycle");
    (Fault_inject, "fault-inject", "fault");
    (Degrade_force_finish, "degrade-force-finish", "degrade");
    (Degrade_full_stw, "degrade-full-stw", "degrade");
    (Degrade_compact, "degrade-compact", "degrade");
    (Oom, "out-of-memory", "degrade");
    (Verify_pass, "verify-pass", "verify");
    (Incr_factor, "increment-factor", "phase");
    (Req_arrive, "req-arrive", "server");
    (Req_start, "req-start", "server");
    (Req_done, "req-done", "server");
    (Req_shed, "req-shed", "server");
    (Req_timeout, "req-timeout", "server");
    (Req_retry, "req-retry", "server");
    (Req_redirect, "req-redirect", "server");
    (Req_hedge, "req-hedge", "server");
    (Cluster_fault, "cluster-fault", "fault");
    (Minor_start, "minor-start", "gen");
    (Minor_done, "minor-done", "gen");
    (Promote, "promote", "gen");
    (Nursery_fill, "nursery-fill", "gen");
  |]

let name c = let _, n, _ = table.(index c) in n
let cat c = let _, _, k = table.(index c) in k
let all_codes = Array.to_list (Array.map (fun (c, _, _) -> c) table)
