(* Drift check between docs/ARCHITECTURE.md's layer map and the source
   tree: for every library under lib/, the map's modules column names
   exactly the compilation units of its directory. *)

(* Under `dune runtest` the sources are declared deps at ../lib/; under
   `dune exec` from the repo root they are in lib/. *)
let lib_root () =
  match List.find_opt Sys.file_exists [ "../lib"; "lib" ] with
  | Some root -> root
  | None -> Alcotest.fail "lib/ not found"

(* The [(name ...)] of a dune library stanza. *)
let library_name dune =
  In_channel.with_open_bin dune In_channel.input_all
  |> String.split_on_char '('
  |> List.find_map (fun s ->
         match String.split_on_char ')' s with
         | field :: _ when String.starts_with ~prefix:"name " field ->
             Some (String.trim (String.sub field 5 (String.length field - 5)))
         | _ -> None)
  |> Option.get

(* [(library, sorted module names)] for every directory under lib/. *)
let libraries () =
  let root = lib_root () in
  Sys.readdir root |> Array.to_list
  |> List.filter (fun d -> Sys.file_exists (Filename.concat root d ^ "/dune"))
  |> List.map (fun d ->
         let dir = Filename.concat root d in
         let modules =
           Sys.readdir dir |> Array.to_list
           |> List.filter (fun f -> Filename.check_suffix f ".ml")
           |> List.map (fun f ->
                  String.capitalize_ascii (Filename.remove_extension f))
         in
         (library_name (dir ^ "/dune"), List.sort compare modules))

let test_layer_map_lists_every_module () =
  let documented =
    Doc_table.rows ~doc:"ARCHITECTURE.md"
      ~header:"| layer | library | modules | owns |"
    |> List.filter_map (function
         | _ :: library :: modules :: _
           when String.starts_with ~prefix:"cgc_" library ->
             Some
               ( library,
                 String.split_on_char ',' modules
                 |> List.map String.trim |> List.sort compare )
         | _ -> None)
  in
  Alcotest.(check (list (pair string (list string))))
    "docs/ARCHITECTURE.md layer map: library, modules"
    (List.sort compare (libraries ()))
    (List.sort compare documented)

let () =
  Alcotest.run "docs"
    [
      ( "architecture",
        [
          Alcotest.test_case "layer map lists every module" `Quick
            test_layer_map_lists_every_module;
        ] );
    ]
