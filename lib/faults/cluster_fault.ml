module Prng = Cgc_util.Prng

type scenario = Shard_crash | Shard_restart | Shard_brownout | Ring_flap

let index = function
  | Shard_crash -> 0
  | Shard_restart -> 1
  | Shard_brownout -> 2
  | Ring_flap -> 3

(* One row per scenario, in [index] order: the scenario, its CLI name and
   its one-line description. *)
let table =
  [|
    ( Shard_crash,
      "shard-crash",
      "one shard goes dark mid-run and never rejoins; queued requests lost" );
    ( Shard_restart,
      "shard-restart",
      "a dark window then a cold rejoin with empty queue and fresh heap" );
    ( Shard_brownout,
      "shard-brownout",
      "a noisy neighbour inflates one shard's service times for a window" );
    ( Ring_flap,
      "ring-flap",
      "the victim shard repeatedly leaves and rejoins the fleet" );
  |]

let all = Array.to_list (Array.map (fun (s, _, _) -> s) table)
let to_name s = let _, n, _ = table.(index s) in n
let describe s = let _, _, d = table.(index s) in d
let of_name n = List.find_opt (fun s -> to_name s = n) all

type incarnation = { index : int; start : int; stop : int; crashed : bool }

type plan = {
  scenario : scenario option;
  seed : int;
  horizon : int;
  victim : int;
  dark : (int * int) array; (* victim dark windows, half-open, sorted *)
  brown : (int * int * float) option; (* victim slowdown window *)
}

let none ~horizon =
  {
    scenario = None;
    seed = 0;
    horizon;
    victim = -1;
    dark = [||];
    brown = None;
  }

(* Window geometry, as fractions of the horizon.  The per-seed jitter
   (up to 5% of the horizon) keeps different chaos seeds from hitting
   the same simulated instant while preserving determinism. *)
let frac h x = int_of_float (float_of_int h *. x)

let make ~scenario ~seed ~shards ~horizon =
  if shards <= 0 then invalid_arg "Cluster_fault.make: shards";
  let rng = Prng.create (seed lxor 0xc1a05_f1e7) in
  let victim = Prng.int rng shards in
  let jitter = Prng.int rng (max 1 (horizon / 20)) in
  let dark, brown =
    match scenario with
    | Shard_crash -> ([| (frac horizon 0.40 + jitter, max_int) |], None)
    | Shard_restart ->
        ([| (frac horizon 0.35 + jitter, frac horizon 0.65 + jitter) |], None)
    | Shard_brownout ->
        ([||], Some (frac horizon 0.30 + jitter, frac horizon 0.70 + jitter, 2.0))
    | Ring_flap ->
        let period = frac horizon 0.15 and width = frac horizon 0.06 in
        let base = frac horizon 0.30 + jitter in
        let ws = ref [] in
        let s = ref base in
        while !s + width < horizon do
          ws := (!s, !s + width) :: !ws;
          s := !s + period
        done;
        (Array.of_list (List.rev !ws), None)
  in
  { scenario = Some scenario; seed; horizon; victim; dark; brown }

let scenario p = p.scenario
let seed p = p.seed
let victim p = p.victim

let live_at p ~shard t =
  shard <> p.victim
  || not (Array.exists (fun (s, e) -> t >= s && t < e) p.dark)

let incarnations p ~shard =
  if shard <> p.victim || Array.length p.dark = 0 then
    [ { index = 0; start = 0; stop = p.horizon; crashed = false } ]
  else begin
    let acc = ref [] in
    let cur = ref 0 and idx = ref 0 in
    Array.iter
      (fun (s, e) ->
        if s < p.horizon then begin
          acc := { index = !idx; start = !cur; stop = s; crashed = true } :: !acc;
          incr idx;
          cur := e
        end)
      p.dark;
    if !cur < p.horizon then
      acc := { index = !idx; start = !cur; stop = p.horizon; crashed = false }
             :: !acc;
    List.rev !acc
  end

let brownout p ~shard = if shard = p.victim then p.brown else None

let first_onset p =
  let starts =
    Array.to_list (Array.map fst p.dark)
    @ (match p.brown with Some (s, _, _) -> [ s ] | None -> [])
  in
  match starts with
  | [] -> None
  | l -> Some (List.fold_left min max_int l)

let recovered_at p =
  match p.scenario with
  | None -> None
  | Some _ ->
      let stops =
        Array.to_list (Array.map snd p.dark)
        @ (match p.brown with Some (_, e, _) -> [ e ] | None -> [])
      in
      if stops = [] then None
      else
        let last = List.fold_left max 0 stops in
        if last >= p.horizon then None else Some last
