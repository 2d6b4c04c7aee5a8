type policy = Round_robin | Least_queue | Consistent_hash

let policy_name = function
  | Round_robin -> "round-robin"
  | Least_queue -> "least-queue"
  | Consistent_hash -> "consistent-hash"

let policy_of_name = function
  | "round-robin" | "rr" -> Some Round_robin
  | "least-queue" | "lqd" | "least-queue-depth" -> Some Least_queue
  | "consistent-hash" | "hash" -> Some Consistent_hash
  | _ -> None

let all_policies = [ Round_robin; Least_queue; Consistent_hash ]

(* SplitMix64 finalizer — the ring and the session keys need a mixer,
   not a stream, so shard placement is a pure function of shard id. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let vnodes = 64

let policy_index = function
  | Round_robin -> 0
  | Least_queue -> 1
  | Consistent_hash -> 2

(* A shard's vnode positions are a pure function of its id, so the ring
   over any live set is the full ring minus the dark shards' points —
   removing a shard remaps exactly the keys it owned (monotonicity), and
   re-adding it restores the prior assignment bit-for-bit. *)
let ring_points ~nshards ~live =
  let pts = ref [] in
  for shard = nshards - 1 downto 0 do
    if live.(shard) then
      for replica = vnodes - 1 downto 0 do
        pts :=
          ( mix64 (Int64.of_int ((shard * 0x10001) + (replica * 0x9e37) + 1)),
            shard )
          :: !pts
      done
  done;
  let ring = Array.of_list !pts in
  Array.sort
    (fun (ha, sa) (hb, sb) ->
      let c = Int64.compare ha hb in
      if c <> 0 then c else Int.compare sa sb)
    ring;
  ring

(* Index of the first ring point with hash >= h, wrapping past the top. *)
let ring_index ring h =
  let npoints = Array.length ring in
  let lo = ref 0 and hi = ref npoints in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.compare (fst ring.(mid)) h < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo = npoints then 0 else !lo

let ring_lookup ring h = snd ring.(ring_index ring h)

(* {2 Epoch router}

   The front end feeds it the balancer-visible live set at each epoch
   boundary and then asks it to place arrivals one at a time, so a
   request can be re-placed (retry) or double-placed (hedge) without
   disturbing the scripted per-shard replay.  The fluid backlog model is
   maintained for {e every} policy — it is the hedging signal even when
   the placement policy ignores it. *)

type router = {
  policy : policy;
  nshards : int;
  drain : float;
  depth : float array;
  last : int array;
  mutable rr : int;
  live : bool array;
  mutable nlive : int;
  mutable ring : (int64 * int) array;
}

let router policy ~nshards ~workers ~service_est_ms ~cycles_per_ms =
  if nshards < 1 then invalid_arg "Balancer.router: nshards < 1";
  let live = Array.make nshards true in
  {
    policy;
    nshards;
    drain =
      float_of_int workers /. (service_est_ms *. float_of_int cycles_per_ms);
    depth = Array.make nshards 0.0;
    last = Array.make nshards 0;
    rr = 0;
    live;
    nlive = nshards;
    ring =
      (if policy = Consistent_hash then ring_points ~nshards ~live else [||]);
  }

let set_live r live =
  if Array.length live <> r.nshards then
    invalid_arg "Balancer.set_live: wrong length";
  Array.blit live 0 r.live 0 r.nshards;
  r.nlive <- Array.fold_left (fun n b -> if b then n + 1 else n) 0 r.live;
  if r.policy = Consistent_hash then
    r.ring <- ring_points ~nshards:r.nshards ~live:r.live

let nlive r = r.nlive

let drain_to r t =
  for s = 0 to r.nshards - 1 do
    r.depth.(s) <-
      Float.max 0.0 (r.depth.(s) -. (float_of_int (t - r.last.(s)) *. r.drain));
    r.last.(s) <- t
  done

(* Min-depth candidate among [ok] shards, ties breaking from the
   round-robin cursor, not lowest-id: at low load every modelled queue
   drains to zero between arrivals, and a fixed tie-break would herd the
   whole fleet onto shard 0. *)
let min_depth_from r ok =
  let dmin = ref infinity in
  for s = 0 to r.nshards - 1 do
    if ok s && r.depth.(s) < !dmin then dmin := r.depth.(s)
  done;
  let best = ref (-1) in
  for k = 0 to r.nshards - 1 do
    let s = (r.rr + k) mod r.nshards in
    if !best < 0 && ok s && r.depth.(s) <= !dmin +. 1e-9 then best := s
  done;
  !best

let pick r ~now ~key ~avoid =
  drain_to r now;
  let ok s = r.live.(s) && not avoid.(s) in
  let chosen =
    match r.policy with
    | Round_robin ->
        let best = ref (-1) in
        for k = 0 to r.nshards - 1 do
          let s = (r.rr + k) mod r.nshards in
          if !best < 0 && ok s then best := s
        done;
        !best
    | Least_queue -> min_depth_from r ok
    | Consistent_hash ->
        if Array.length r.ring = 0 then -1
        else begin
          (* Walk clockwise from the key's point to the first shard not
             yet tried — vnode removal without rebuilding the ring. *)
          let npoints = Array.length r.ring in
          let i0 = ring_index r.ring key in
          let best = ref (-1) in
          let k = ref 0 in
          while !best < 0 && !k < npoints do
            let s = snd r.ring.((i0 + !k) mod npoints) in
            if ok s then best := s;
            incr k
          done;
          !best
        end
  in
  if chosen < 0 then None
  else begin
    (match r.policy with
    | Round_robin | Least_queue -> r.rr <- (chosen + 1) mod r.nshards
    | Consistent_hash -> ());
    Some chosen
  end

let note_routed r s = r.depth.(s) <- r.depth.(s) +. 1.0

let hedge_better r ~primary ~margin =
  if margin <= 0.0 then None
  else begin
    let ok s = r.live.(s) && s <> primary in
    let best = min_depth_from r ok in
    if best >= 0 && r.depth.(best) +. margin <= r.depth.(primary) then
      Some best
    else None
  end

let digest r =
  let h = ref (mix64 (Int64.of_int ((policy_index r.policy * 31) + r.nshards)))
  in
  let fold x = h := mix64 (Int64.logxor !h x) in
  Array.iteri
    (fun s b -> fold (Int64.of_int ((s * 2) + (if b then 1 else 0) + 0x51)))
    r.live;
  Array.iter
    (fun (p, s) -> fold (Int64.logxor p (Int64.of_int (s + 1))))
    r.ring;
  !h
