module Vm = Cgc_runtime.Vm

let base_profile : Txmix.profile =
  {
    live_lists = 40;
    list_len = 1000; (* rescaled by setup *)
    node_slots = 6;
    leaf_fanout = 3;
    leaf_slots = 8;
    transient_objs = 12;
    transient_slots = 8;
    mutations = 4;
    tx_work = 25_000;
    think_mean = 0;
    large_every = 40;
    large_slots = 256;
    junk_roots = true;
  }

let spawn_warehouses vm ~warehouses ~residency_at:(ref_wh, frac) =
  let nslots = Cgc_heap.Heap.nslots (Vm.heap vm) in
  let target = int_of_float (float_of_int nslots *. frac) / ref_wh in
  let profile = Txmix.scale_residency base_profile ~target_slots:target in
  for w = 1 to warehouses do
    Vm.spawn_mutator vm
      ~name:(Printf.sprintf "warehouse-%d" w)
      (Txmix.body profile)
  done

let setup ~warehouses ~gc ?(heap_mb = 64.0) ?(ncpus = 4) ?(seed = 1)
    ?(trace = false) ?trace_ring ?(residency_at = (8, 0.6)) () =
  let vm =
    Vm.create (Vm.config ~heap_mb ~ncpus ~seed ~gc ~trace ?trace_ring ())
  in
  spawn_warehouses vm ~warehouses ~residency_at;
  vm
