type chunk = { addr : int; size : int }

let nbins = 30
let min_chunk = 4

type t = {
  bins : chunk list array;
  mutable free : int;
  mutable dark : int;
  mutable count : int;
}

let create () = { bins = Array.make nbins []; free = 0; dark = 0; count = 0 }

let clear t =
  Array.fill t.bins 0 nbins [];
  t.free <- 0;
  t.dark <- 0;
  t.count <- 0

let bin_of_size size =
  (* floor(log2 size), clamped *)
  let rec go s i = if s <= 1 then i else go (s lsr 1) (i + 1) in
  Int.min (nbins - 1) (go size 0)

let add t ~addr ~size =
  if size < min_chunk then t.dark <- t.dark + size
  else begin
    let b = bin_of_size size in
    t.bins.(b) <- { addr; size } :: t.bins.(b);
    t.free <- t.free + size;
    t.count <- t.count + 1
  end

(* Take any chunk of at least [size] slots out of the structure. *)
let take t size =
  (* Bins >= ceil(log2 size) are guaranteed to fit; the exact bin of
     [size] may also contain fitting chunks, so scan its head shallowly. *)
  let exact = bin_of_size size in
  let rec from_bin b =
    if b >= nbins then None
    else
      match t.bins.(b) with
      | c :: rest when c.size >= size || b > exact ->
          (* any chunk in a higher bin has size >= 2^b >= 2^(exact+1) > size *)
          if c.size >= size then begin
            t.bins.(b) <- rest;
            t.free <- t.free - c.size;
            t.count <- t.count - 1;
            Some c
          end
          else from_bin (b + 1)
      | _ :: _ ->
          (* head of exact bin too small: scan a few entries *)
          let rec scan acc l depth =
            match l with
            | c :: rest when c.size >= size ->
                t.bins.(b) <- List.rev_append acc rest;
                t.free <- t.free - c.size;
                t.count <- t.count - 1;
                Some c
            | c :: rest when depth < 8 -> scan (c :: acc) rest (depth + 1)
            | _ -> None
          in
          (match scan [] t.bins.(b) 0 with
          | Some c -> Some c
          | None -> from_bin (b + 1))
      | [] -> from_bin (b + 1)
  in
  from_bin exact

let alloc t size =
  if size < 1 then invalid_arg "Freelist.alloc";
  match take t size with
  | None -> None
  | Some c ->
      let rem = c.size - size in
      if rem > 0 then add t ~addr:(c.addr + size) ~size:rem;
      Some c.addr

let alloc_range t ~min ~pref =
  if min < 1 || pref < min then invalid_arg "Freelist.alloc_range";
  match take t min with
  | None -> None
  | Some c ->
      if c.size <= pref then Some (c.addr, c.size)
      else begin
        add t ~addr:(c.addr + pref) ~size:(c.size - pref);
        Some (c.addr, pref)
      end

let free_slots t = t.free
let dark_matter t = t.dark
let chunk_count t = t.count

let iter t f =
  Array.iter (List.iter (fun c -> f ~addr:c.addr ~size:c.size)) t.bins
