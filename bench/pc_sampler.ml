(* Signal side in pc_sampler_stubs.c; this module arms it and resolves
   its PCs after the window. *)

external start : int -> int -> unit = "cgc_pc_sampler_start"
external stop : unit -> int array * int = "cgc_pc_sampler_stop"

let capacity = 1 lsl 20

let sample ~period_s f =
  start (Int.max 1 (int_of_float (period_s *. 1e6))) capacity;
  match f () with
  | r ->
      let pcs, dropped = stop () in
      (r, pcs, dropped)
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (stop ());
      Printexc.raise_with_backtrace e bt

type site = Outside | Code of { func : string; file : string; line : int }

let hex s = int_of_string ("0x" ^ s)

(* The executable's code mappings, as [(start, end_)], and the address
   its file offset 0 is mapped at. *)
let code_of exe =
  let ic = open_in "/proc/self/maps" in
  let rec go ranges base =
    match input_line ic with
    | exception End_of_file -> (ranges, base)
    | l -> (
        match List.filter (( <> ) "") (String.split_on_char ' ' l) with
        | range :: perms :: offset :: _ :: _ :: path
          when String.concat " " path = exe -> (
            match String.split_on_char '-' range with
            | [ a; b ] ->
                let a = hex a and b = hex b in
                let ranges =
                  if String.contains perms 'x' then (a, b) :: ranges
                  else ranges
                in
                go ranges (if hex offset = 0 then Some a else base)
            | _ -> go ranges base)
        | _ -> go ranges base)
  in
  let ranges, base =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [] None)
  in
  (ranges, Option.value ~default:0 base)

(* addr2line takes addresses as the ELF file numbers them: for a
   position-independent executable (type ET_DYN) that is the PC less the
   load base, for a fixed-address one (ET_EXEC) the PC itself. *)
let is_pie exe =
  In_channel.with_open_bin exe (fun ic ->
      match In_channel.really_input_string ic 18 with
      | Some h -> Char.code h.[16] = 3
      | None -> false)

let site_of func loc =
  (* "file:line", possibly followed by " (discriminator N)" *)
  let loc =
    match String.index_opt loc ' ' with
    | Some i -> String.sub loc 0 i
    | None -> loc
  in
  match String.rindex_opt loc ':' with
  | Some i ->
      let line = String.sub loc (i + 1) (String.length loc - i - 1) in
      let line = Option.value ~default:0 (int_of_string_opt line) in
      Code { func; file = String.sub loc 0 i; line }
  | None -> Code { func; file = loc; line = 0 }

(* One addr2line run over [addrs]: the addresses go through a file on its
   stdin, so neither side can block on a full pipe while the other
   writes. *)
let addr2line exe addrs =
  let input = Filename.temp_file "pc_sampler" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove input)
    (fun () ->
      Out_channel.with_open_text input (fun oc ->
          List.iter (fun a -> Printf.fprintf oc "0x%x\n" a) addrs);
      let fd_in = Unix.openfile input [ Unix.O_RDONLY ] 0 in
      let out_r, out_w = Unix.pipe ~cloexec:true () in
      let pid =
        Fun.protect
          ~finally:(fun () ->
            Unix.close fd_in;
            Unix.close out_w)
          (fun () ->
            Unix.create_process "addr2line"
              [| "addr2line"; "-f"; "-e"; exe |]
              fd_in out_w Unix.stderr)
      in
      let ic = Unix.in_channel_of_descr out_r in
      let lines = In_channel.input_all ic |> String.split_on_char '\n' in
      close_in ic;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "Pc_sampler: addr2line failed");
      let rec pairs acc = function
        | func :: loc :: rest -> pairs (site_of func loc :: acc) rest
        | _ -> List.rev acc
      in
      let sites = pairs [] lines in
      if List.length sites <> List.length addrs then
        failwith "Pc_sampler: addr2line gave fewer lines than addresses";
      sites)

let resolve pcs =
  let exe = Unix.readlink "/proc/self/exe" in
  let ranges, base = code_of exe in
  let base = if is_pie exe then base else 0 in
  let in_code pc = List.exists (fun (a, b) -> pc >= a && pc < b) ranges in
  let distinct = Hashtbl.create 1024 in
  Array.iter
    (fun pc ->
      if in_code pc && not (Hashtbl.mem distinct pc) then
        Hashtbl.add distinct pc Outside)
    pcs;
  let keys = Hashtbl.fold (fun pc _ l -> pc :: l) distinct [] in
  if keys <> [] then
    List.iter2 (Hashtbl.replace distinct) keys
      (addr2line exe (List.map (fun pc -> pc - base) keys));
  Array.map
    (fun pc -> Option.value ~default:Outside (Hashtbl.find_opt distinct pc))
    pcs
