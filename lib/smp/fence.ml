type site =
  | Alloc_batch
  | Packet_return
  | Packet_defer
  | Card_snapshot
  | Naive_alloc
  | Naive_barrier
  | Naive_mark
  | Other

let site_index = function
  | Alloc_batch -> 0
  | Packet_return -> 1
  | Packet_defer -> 2
  | Card_snapshot -> 3
  | Naive_alloc -> 4
  | Naive_barrier -> 5
  | Naive_mark -> 6
  | Other -> 7

(* One row per site, in [site_index] order. *)
let table =
  [|
    (Alloc_batch, "alloc-batch");
    (Packet_return, "packet-return");
    (Packet_defer, "packet-defer");
    (Card_snapshot, "card-snapshot");
    (Naive_alloc, "naive-alloc");
    (Naive_barrier, "naive-barrier");
    (Naive_mark, "naive-mark");
    (Other, "other");
  |]

let nsites = Array.length table
let site_name s = snd table.(site_index s)
let all_sites = Array.to_list (Array.map fst table)

type counters = int array

let create () = Array.make nsites 0

let count c site = c.(site_index site) <- c.(site_index site) + 1

let get c site = c.(site_index site)

let total c = Array.fold_left ( + ) 0 c

let reset c = Array.fill c 0 nsites 0
