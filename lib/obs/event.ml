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

let instant e = e.dur < 0

let name = function
  | Cycle_start -> "cycle-start"
  | Cycle_end -> "cycle-end"
  | Conc_mark -> "concurrent-mark"
  | Stw_pause -> "stw-pause"
  | Stw_mark -> "stw-mark"
  | Stw_sweep -> "stw-sweep"
  | Stw_compact -> "stw-compact"
  | Mut_increment -> "mutator-increment"
  | Bg_chunk -> "background-chunk"
  | Root_scan -> "root-scan"
  | Card_pass -> "card-pass"
  | Card_clean_conc -> "card-clean-concurrent"
  | Card_clean_stw -> "card-clean-stw"
  | Packet_get -> "packet-get"
  | Packet_put -> "packet-put"
  | Packet_defer -> "packet-defer"
  | Packet_recycle -> "packet-recycle"
  | Packet_steal -> "packet-steal"
  | Sweep_chunk -> "sweep-chunk"
  | Fence_flush -> "fence-flush"
  | Alloc_failure -> "alloc-failure"
  | Fault_inject -> "fault-inject"
  | Degrade_force_finish -> "degrade-force-finish"
  | Degrade_full_stw -> "degrade-full-stw"
  | Degrade_compact -> "degrade-compact"
  | Oom -> "out-of-memory"
  | Verify_pass -> "verify-pass"
  | Incr_factor -> "increment-factor"
  | Req_arrive -> "req-arrive"
  | Req_start -> "req-start"
  | Req_done -> "req-done"
  | Req_shed -> "req-shed"
  | Req_timeout -> "req-timeout"
  | Req_retry -> "req-retry"
  | Req_redirect -> "req-redirect"
  | Req_hedge -> "req-hedge"
  | Cluster_fault -> "cluster-fault"
  | Minor_start -> "minor-start"
  | Minor_done -> "minor-done"
  | Promote -> "promote"
  | Nursery_fill -> "nursery-fill"

let cat = function
  | Cycle_start | Cycle_end -> "cycle"
  | Conc_mark | Mut_increment | Bg_chunk -> "phase"
  | Stw_pause | Stw_mark | Stw_sweep | Stw_compact -> "pause"
  | Root_scan -> "root"
  | Card_pass | Card_clean_conc | Card_clean_stw -> "card"
  | Packet_get | Packet_put | Packet_defer | Packet_recycle | Packet_steal ->
      "packet"
  | Sweep_chunk -> "sweep"
  | Fence_flush -> "fence"
  | Alloc_failure -> "cycle"
  | Fault_inject -> "fault"
  | Degrade_force_finish | Degrade_full_stw | Degrade_compact | Oom ->
      "degrade"
  | Verify_pass -> "verify"
  | Incr_factor -> "phase"
  | Req_arrive | Req_start | Req_done | Req_shed | Req_timeout | Req_retry
  | Req_redirect | Req_hedge ->
      "server"
  | Cluster_fault -> "fault"
  | Minor_start | Minor_done | Promote | Nursery_fill -> "gen"

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

let all_codes =
  [
    Cycle_start;
    Cycle_end;
    Conc_mark;
    Stw_pause;
    Stw_mark;
    Stw_sweep;
    Stw_compact;
    Mut_increment;
    Bg_chunk;
    Root_scan;
    Card_pass;
    Card_clean_conc;
    Card_clean_stw;
    Packet_get;
    Packet_put;
    Packet_defer;
    Packet_recycle;
    Packet_steal;
    Sweep_chunk;
    Fence_flush;
    Alloc_failure;
    Fault_inject;
    Degrade_force_finish;
    Degrade_full_stw;
    Degrade_compact;
    Oom;
    Verify_pass;
    Incr_factor;
    Req_arrive;
    Req_start;
    Req_done;
    Req_shed;
    Req_timeout;
    Req_retry;
    Req_redirect;
    Req_hedge;
    Cluster_fault;
    Minor_start;
    Minor_done;
    Promote;
    Nursery_fill;
  ]
