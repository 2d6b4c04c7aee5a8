module Vm = Cgc_runtime.Vm
module Mutator = Cgc_runtime.Mutator

(* One "class" is a tree: depth 4, fanout 4, 6-slot nodes: 341 nodes,
   about 2 Kslots. *)
let class_depth = 4
let class_fanout = 4
let class_node_slots = 6

let class_slots =
  (* nodes * size, roughly: internal nodes need fanout+1 slots *)
  341 * 6

let body ~unit_slots m =
  let classes_per_unit = max 1 (unit_slots / class_slots) in
  (* roots: 0 = previous unit, 1 = current unit *)
  let new_unit () =
    Mutator.alloc m ~nrefs:classes_per_unit ~size:(classes_per_unit + 1)
  in
  let current = ref (new_unit ()) in
  Mutator.root_set m 1 !current;
  let filled = ref 0 in
  while not (Mutator.stopped m) do
    (* Compile one class: build its AST and attach it. *)
    let tree =
      Objgraph.build_tree m ~depth:class_depth ~fanout:class_fanout
        ~node_slots:class_node_slots
    in
    Mutator.set_ref m !current !filled tree;
    incr filled;
    Mutator.work m 60_000;
    if !filled >= classes_per_unit then begin
      (* Unit finished: it becomes the "previous" unit (symbol tables
         stay live); the older previous is dropped in bulk. *)
      Mutator.root_set m 0 !current;
      current := new_unit ();
      Mutator.root_set m 1 !current;
      filled := 0
    end;
    Mutator.tx_done m
  done

let setup ~gc ?(heap_mb = 25.0) ?(ncpus = 1) ?(seed = 1) ?(trace = false)
    ?trace_ring () =
  let vm =
    Vm.create (Vm.config ~heap_mb ~ncpus ~seed ~gc ~trace ?trace_ring ())
  in
  let nslots = Cgc_heap.Heap.nslots (Vm.heap vm) in
  (* Two units live at ~70% residency. *)
  let unit_slots = int_of_float (float_of_int nslots *. 0.7 /. 2.0) in
  Vm.spawn_mutator vm ~name:"javac" (body ~unit_slots);
  vm
