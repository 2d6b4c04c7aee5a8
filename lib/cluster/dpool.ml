(* Persistent worker domains fed batches of indexed jobs through
   per-worker SPMC deques.

   Between batches the workers block on [cv]; [run] installs a batch,
   bumps the epoch and broadcasts.  Inside a batch everything is
   lock-free: each worker drains its own deque, then steals from its
   peers, then spins on [remaining] until the stragglers finish.  The
   caller participates as worker 0, so a size-1 pool is just a serial
   loop with no domains spawned at all. *)

type batch = {
  deques : Deque.t array;
  f : int -> unit;
  remaining : int Atomic.t;
  err : exn option Atomic.t;
}

type t = {
  nworkers : int;
  mu : Mutex.t;
  cv : Condition.t;
  mutable batch : batch option;
  mutable epoch : int;
  mutable stopped : bool;
  mutable doms : unit Domain.t list;
}

(* Re-entrance flag: a job that calls run/map again executes the inner
   batch inline instead of deadlocking on the single batch slot. *)
let inside_pool : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let work b ~wid =
  let nw = Array.length b.deques in
  let steal () =
    (* Own deque first, then sweep the peers from the right neighbour
       round — the fixed scan order is fine because job payloads are
       coarse (whole simulations), not queue operations. *)
    let rec scan k =
      if k = nw then None
      else
        match Deque.take b.deques.((wid + k) mod nw) with
        | Some j -> Some j
        | None -> scan (k + 1)
    in
    scan 0
  in
  let rec loop () =
    match steal () with
    | Some j ->
        (try b.f j
         with e -> ignore (Atomic.compare_and_set b.err None (Some e)));
        ignore (Atomic.fetch_and_add b.remaining (-1));
        loop ()
    | None ->
        if Atomic.get b.remaining > 0 then begin
          Domain.cpu_relax ();
          loop ()
        end
  in
  loop ()

let worker t ~wid () =
  let last = ref 0 in
  let rec serve () =
    Mutex.lock t.mu;
    while t.epoch = !last && not t.stopped do
      Condition.wait t.cv t.mu
    done;
    if t.stopped then Mutex.unlock t.mu
    else begin
      last := t.epoch;
      match t.batch with
      | None ->
          (* The batch drained (and was cleared) before this worker
             woke up — nothing to do for that epoch. *)
          Mutex.unlock t.mu;
          serve ()
      | Some b ->
          Mutex.unlock t.mu;
          Domain.DLS.set inside_pool true;
          work b ~wid;
          Domain.DLS.set inside_pool false;
          serve ()
    end
  in
  serve ()

let create ~domains =
  let nworkers = Stdlib.max 1 domains in
  let t =
    {
      nworkers;
      mu = Mutex.create ();
      cv = Condition.create ();
      batch = None;
      epoch = 0;
      stopped = false;
      doms = [];
    }
  in
  t.doms <-
    List.init (nworkers - 1) (fun i ->
        Domain.spawn (worker t ~wid:(i + 1)));
  t

let shutdown t =
  Mutex.lock t.mu;
  t.stopped <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.mu;
  List.iter Domain.join t.doms;
  t.doms <- []

(* Same exception contract as the parallel path: every job runs, the
   first exception (in completion order — here, index order) is kept and
   re-raised after the batch drains.  Without this, a serial pool would
   abandon the remaining jobs where an 8-domain pool runs them, and
   "first exception" would mean different things at different sizes. *)
let run_serial ~n f =
  let err = ref None in
  for i = 0 to n - 1 do
    try f i with e -> if !err = None then err := Some e
  done;
  match !err with Some e -> raise e | None -> ()

let run t ~n f =
  if n <= 0 then ()
  else if t.nworkers = 1 || n = 1 || Domain.DLS.get inside_pool then
    (* Serial fast path — also the nested-parallelism fallback. *)
    run_serial ~n f
  else begin
    if t.stopped then invalid_arg "Dpool.run: pool is shut down";
    let nw = t.nworkers in
    let deques =
      Array.init nw (fun _ -> Deque.create ~capacity:((n + nw - 1) / nw))
    in
    (* Round-robin distribution: contiguous indices land on distinct
       workers, so equal-cost jobs split evenly and unequal ones are
       rebalanced by stealing. *)
    for i = 0 to n - 1 do
      Deque.push deques.(i mod nw) i
    done;
    let b = { deques; f; remaining = Atomic.make n; err = Atomic.make None } in
    Mutex.lock t.mu;
    t.batch <- Some b;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.cv;
    Mutex.unlock t.mu;
    Domain.DLS.set inside_pool true;
    work b ~wid:0;
    Domain.DLS.set inside_pool false;
    (* remaining = 0: every job has completed, and each worker's writes
       were published by its fetch_and_add on [remaining]. *)
    Mutex.lock t.mu;
    t.batch <- None;
    Mutex.unlock t.mu;
    match Atomic.get b.err with Some e -> raise e | None -> ()
  end

let map t f items =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run t ~n (fun i -> results.(i) <- Some (f items.(i)));
    Array.map (function Some r -> r | None -> assert false) results
  end

(* ------------------------------ global ------------------------------ *)

let the_global = ref None
let global_size_ref = ref 1

let global () =
  match !the_global with
  | Some p -> p
  | None ->
      let p = create ~domains:!global_size_ref in
      the_global := Some p;
      p

let set_size n =
  let n = Stdlib.max 1 n in
  if n <> !global_size_ref || !the_global = None then begin
    (match !the_global with Some p -> shutdown p | None -> ());
    global_size_ref := n;
    the_global := Some (create ~domains:n)
  end
