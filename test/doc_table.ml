(* Drift checks between a vocabulary declared once in the library and
   the markdown table that documents it: the table's rows, projected on
   some columns, must be exactly the expected rows — same set, no
   duplicates, no extras.  On failure Alcotest prints the expected rows
   beside the documented ones. *)

(* Under `dune runtest` the docs are declared deps at ../docs/; under
   `dune exec` from the repo root they are in docs/. *)
let read doc =
  match
    List.find_opt Sys.file_exists [ "../docs/" ^ doc; "docs/" ^ doc ]
  with
  | Some path -> In_channel.with_open_bin path In_channel.input_all
  | None -> Alcotest.failf "docs/%s not found" doc

(* A row's cells, trimmed, with code quotes removed (plus an empty cell
   after the closing bar, which no column selects). *)
let cells line =
  String.split_on_char '|' line
  |> List.tl
  |> List.map (fun c ->
         String.trim c |> String.split_on_char '`' |> String.concat "")

(* The body rows of the table whose header line is [header]. *)
let rows ~doc ~header =
  let rec body = function
    | l :: rest when String.starts_with ~prefix:"|" l -> cells l :: body rest
    | _ -> []
  in
  let rec find = function
    | l :: _separator :: rest when l = header -> body rest
    | _ :: rest -> find rest
    | [] -> Alcotest.failf "docs/%s has no table headed %S" doc header
  in
  find (String.split_on_char '\n' (read doc))

let check ~doc ~header ~columns expected =
  let render row = "| " ^ String.concat " | " row ^ " |" in
  let pick row =
    List.map (fun i -> Option.value ~default:"" (List.nth_opt row i)) columns
  in
  let documented = List.map (fun r -> render (pick r)) (rows ~doc ~header) in
  Alcotest.(check (list string))
    (Printf.sprintf "docs/%s table %s" doc header)
    (List.sort compare (List.map render expected))
    (List.sort compare documented)
