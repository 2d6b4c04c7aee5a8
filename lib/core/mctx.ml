type t = {
  tid : int;
  thread : Cgc_sim.Sched.thread;
  roots : int array;
  cache : Cgc_heap.Heap.cache;
  mutable stack_scanned : bool;
  mutable alloc_slots : int;
  mutable trace_debt : int;
}

let create ~tid ~thread ~stack_slots =
  {
    tid;
    thread;
    roots = Array.make stack_slots 0;
    cache = Cgc_heap.Heap.new_cache ();
    stack_scanned = false;
    alloc_slots = 0;
    trace_debt = 0;
  }

let root_get t i = t.roots.(i)
let root_set t i v = t.roots.(i) <- v
