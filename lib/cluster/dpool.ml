(* Each parallel batch spawns [min size n - 1] domains; they and the
   caller take job indices from one atomic counter until it passes [n],
   then the caller joins them.  A job is a whole simulation, so the
   spawn and join (about a millisecond for three domains) is noise. *)

let size = ref 1
let set_size n = size := Int.max 1 n

(* Set while a domain runs batch jobs: a job that calls [map] again
   runs the inner batch serially on its own domain. *)
let inside : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Every job runs and the first exception in index order is re-raised,
   so a serial batch abandons no job that a parallel one would run. *)
let run_serial ~n f =
  let err = ref None in
  for i = 0 to n - 1 do
    try f i with e -> if !err = None then err := Some e
  done;
  match !err with Some e -> raise e | None -> ()

let run ~n f =
  if !size = 1 || n <= 1 || Domain.DLS.get inside then run_serial ~n f
  else begin
    let next = Atomic.make 0 and err = Atomic.make None in
    let work () =
      Domain.DLS.set inside true;
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (try f i
           with e -> ignore (Atomic.compare_and_set err None (Some e)));
          loop ()
        end
      in
      loop ();
      Domain.DLS.set inside false
    in
    let doms = List.init (Int.min !size n - 1) (fun _ -> Domain.spawn work) in
    work ();
    (* Joining publishes every job's writes to the caller. *)
    List.iter Domain.join doms;
    match Atomic.get err with Some e -> raise e | None -> ()
  end

let map f items =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run ~n (fun i -> results.(i) <- Some (f items.(i)));
    Array.map (function Some r -> r | None -> assert false) results
  end
