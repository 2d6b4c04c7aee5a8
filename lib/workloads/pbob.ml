module Vm = Cgc_runtime.Vm

let base_profile : Txmix.profile =
  {
    live_lists = 25;
    list_len = 950; (* rescaled by setup *)
    node_slots = 6;
    leaf_fanout = 3;
    leaf_slots = 8;
    transient_objs = 8;
    transient_slots = 8;
    mutations = 3;
    tx_work = 15_000;
    think_mean = 16_500_000 (* 30 ms at 550 MHz; overridable *);
    large_every = 60;
    large_slots = 192;
    junk_roots = true;
  }

let setup ~warehouses ~gc ?(terminals = 25) ?(heap_mb = 256.0) ?(ncpus = 4)
    ?(seed = 1) ?(trace = false) ?trace_ring ?think_mean
    ?(residency_at = (80, 0.78)) () =
  let vm =
    Vm.create (Vm.config ~heap_mb ~ncpus ~seed ~gc ~trace ?trace_ring ())
  in
  let nslots = Cgc_heap.Heap.nslots (Vm.heap vm) in
  let ref_wh, frac = residency_at in
  let target = int_of_float (float_of_int nslots *. frac) / ref_wh in
  let profile = Txmix.scale_residency base_profile ~target_slots:target in
  let profile =
    match think_mean with
    | Some tm -> { profile with Txmix.think_mean = tm }
    | None -> profile
  in
  if warehouses > Cgc_core.Collector.n_globals then
    invalid_arg "Pbob.setup: too many warehouses for the global-roots table";
  for w = 0 to warehouses - 1 do
    for term = 0 to terminals - 1 do
      Vm.spawn_mutator vm
        ~name:(Printf.sprintf "wh%d-term%d" w term)
        (Txmix.shared_body profile ~global_slot:w ~builder:(term = 0))
    done
  done;
  vm
