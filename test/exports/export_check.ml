(* Which exported values does anything outside their own unit use?

   The exports are the [val]s of every interface (.cmti) under the export
   roots, including those in nested signatures and in a functor's result
   signature.  The references are the value identifiers in the typed tree
   (.cmt) of every implementation under the user roots.  A reference is
   resolved to the unit that defines it through local module bindings
   ([module X = P], [let module X = P in], a functor application standing
   for its functor) and through every unit's top-level aliases; the
   latter include the [Lib.M] -> [Lib__M] aliases of each dune-wrapped
   library.  [open] and [let open] need nothing more: the typer already
   qualifies the identifiers they bring into scope with the opened
   module's path.  A module used as a whole (a functor argument, an
   [include], a packed first-class module) is not followed, so its values
   would show as unreferenced; no code under the scanned roots does
   that. *)

open Typedtree

type status =
  | Production  (** referenced from a non-test unit other than its own *)
  | Tests_only of string list
      (** referenced outside its unit, but only from these test sources *)
  | Own_unit_only  (** referenced only inside its own unit *)
  | Unreferenced

type export = {
  name : string;  (** [Lib.Module.value], e.g. [Cgc_util.Bitvec.get] *)
  file : string;  (** the .mli, relative to the workspace root *)
  line : int;
  status : status;
}

(* What the scan has seen of one export so far. *)
type refs = {
  unit_name : string;
  e_file : string;
  e_line : int;
  mutable prod : bool;
  mutable tests : string list;  (* the test sources that reach it *)
  mutable own : bool;
}

(* Every file under [dir] (hidden build directories included) whose name
   ends in [ext]. *)
let rec files_under ext dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let path = Filename.concat dir f in
           if Sys.is_directory path then files_under ext path
           else if Filename.check_suffix f ext then [ path ]
           else [])

(* [Cgc_util__Bitvec] -> [Cgc_util.Bitvec]: a wrapped library's unit, as
   its users write it. *)
let rec display_unit u =
  let n = String.length u in
  let rec find i =
    if i + 1 >= n then None
    else if u.[i] = '_' && u.[i + 1] = '_' then Some i
    else find (i + 1)
  in
  match find 1 with
  | Some i ->
      String.sub u 0 i ^ "." ^ display_unit (String.sub u (i + 2) (n - i - 2))
  | None -> u

let rec resolve locals = function
  | Path.Pident id ->
      if Ident.global id then Some [ Ident.name id ]
      else Hashtbl.find_opt locals (Ident.unique_name id)
  | Path.Pdot (p, s) -> Option.map (fun l -> l @ [ s ]) (resolve locals p)
  | Path.Papply (f, _) -> resolve locals f
  | Path.Pextra_ty (p, _) -> resolve locals p

(* The module a binding's right-hand side names, if it names one. *)
let rec target locals me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> resolve locals p
  | Tmod_constraint (me, _, _, _) | Tmod_apply (me, _, _) | Tmod_apply_unit me
    ->
      target locals me
  | Tmod_structure _ | Tmod_functor _ | Tmod_unpack _ -> None

(* Walk the implementation of unit [unit_name].  [alias] sees each
   top-level [module X = P]; [ident] each resolved value path. *)
let walk ~unit_name ~alias ~ident (str : structure) =
  let locals = Hashtbl.create 16 in
  let bind id me =
    Option.iter
      (fun id ->
        Option.iter
          (Hashtbl.replace locals (Ident.unique_name id))
          (target locals me))
      id
  in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      Tast_iterator.expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> Option.iter ident (resolve locals p)
          | Texp_letmodule (id, _, _, me, _) -> bind id me
          | _ -> ());
          default.expr it e);
      module_binding =
        (fun it mb ->
          bind mb.mb_id mb.mb_expr;
          default.module_binding it mb);
    }
  in
  (* A top-level name is the unit's own [U.name] inside the unit too. *)
  let own id =
    Hashtbl.replace locals (Ident.unique_name id) [ unit_name; Ident.name id ]
  in
  List.iter
    (fun item ->
      (match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter (fun vb -> List.iter own (pat_bound_idents vb.vb_pat)) vbs
      | Tstr_primitive vd -> own vd.val_id
      | Tstr_module { mb_id = Some id; mb_expr; _ } -> (
          match target locals mb_expr with
          | Some t -> alias (Ident.name id) t
          | None -> own id)
      | _ -> ());
      it.structure_item it item)
    str.str_items

(* Scan the build tree under [root].  [exports] and [users] are source
   directories relative to the workspace root; [is_test] is asked of each
   implementation's source file (relative to the workspace root). *)
let scan ~root ~exports ~users ~is_test =
  let table = Hashtbl.create 1024 in
  let in_build d = Filename.concat root d in
  List.iter
    (fun dir ->
      List.iter
        (fun path ->
          let cmt = Cmt_format.read_cmt path in
          match cmt.cmt_annots with
          | Interface sg ->
              let unit_name = cmt.cmt_modname in
              let file = Option.value cmt.cmt_sourcefile ~default:path in
              let rec sig_items prefix sg =
                List.iter
                  (fun item ->
                    match item.sig_desc with
                    | Tsig_value vd ->
                        Hashtbl.replace table
                          (unit_name :: List.rev (vd.val_name.txt :: prefix))
                          {
                            unit_name;
                            e_file = file;
                            e_line = vd.val_loc.loc_start.pos_lnum;
                            prod = false;
                            tests = [];
                            own = false;
                          }
                    | Tsig_module { md_id = Some id; md_type; _ } ->
                        mty (Ident.name id :: prefix) md_type
                    | _ -> ())
                  sg.sig_items
              and mty prefix m =
                match m.mty_desc with
                | Tmty_signature sg -> sig_items prefix sg
                | Tmty_functor (_, res) -> mty prefix res
                | Tmty_with (m, _) -> mty prefix m
                | Tmty_ident _ | Tmty_typeof _ | Tmty_alias _ -> ()
              in
              sig_items [] sg
          | _ -> ())
        (files_under ".cmti" (in_build dir)))
    exports;
  let units =
    List.concat_map
      (fun dir ->
        List.filter_map
          (fun path ->
            let cmt = Cmt_format.read_cmt path in
            match cmt.cmt_annots with
            | Implementation str ->
                let src = Option.value cmt.cmt_sourcefile ~default:path in
                let test = if is_test src then Some src else None in
                Some (cmt.cmt_modname, test, str)
            | _ -> None)
          (files_under ".cmt" (in_build dir)))
      users
  in
  (* Pass 1: every unit's top-level aliases, so that pass 2 can follow
     [U.X.v] to wherever [U]'s [X] points. *)
  let aliases = Hashtbl.create 256 in
  List.iter
    (fun (u, _, str) ->
      walk ~unit_name:u
        ~alias:(fun x t -> Hashtbl.replace aliases (u, x) t)
        ~ident:ignore str)
    units;
  let rec canon = function
    | u :: m :: rest as l -> (
        match Hashtbl.find_opt aliases (u, m) with
        | Some t -> canon (t @ rest)
        | None -> l)
    | l -> l
  in
  (* Pass 2: count the references. *)
  List.iter
    (fun (u, test, str) ->
      let count c =
        if c.unit_name = u then c.own <- true
        else
          match test with
          | Some src ->
              if not (List.mem src c.tests) then c.tests <- src :: c.tests
          | None -> c.prod <- true
      in
      let ident p = Option.iter count (Hashtbl.find_opt table (canon p)) in
      walk ~unit_name:u ~alias:(fun _ _ -> ()) ~ident str)
    units;
  Hashtbl.fold
    (fun k c acc ->
      let name =
        match k with
        | u :: path -> String.concat "." (display_unit u :: path)
        | [] -> assert false
      in
      let status =
        if c.prod then Production
        else if c.tests <> [] then Tests_only (List.sort compare c.tests)
        else if c.own then Own_unit_only
        else Unreferenced
      in
      { name; file = c.e_file; line = c.e_line; status } :: acc)
    table []
  |> List.sort (fun a b -> compare (a.file, a.line) (b.file, b.line))

(* Every way [exports] and [allowlist] ([(name, reason)] pairs) disagree,
   one message each.  An export must have a production caller, or be
   reached only from tests and be allowlisted with a reason; an entry must
   name an export that only tests reach. *)
let problems ~allowlist exports =
  let where e = Printf.sprintf "%s (%s:%d)" e.name e.file e.line in
  let listed name = List.mem_assoc name allowlist in
  let from_exports =
    List.filter_map
      (fun e ->
        match e.status with
        | Production when listed e.name ->
            Some (where e ^ ": allowlisted, but has a production caller")
        | Production -> None
        | Tests_only _ when listed e.name -> None
        | Tests_only srcs ->
            Some
              (Printf.sprintf
                 "%s: only tests reach it (%s); allowlist it with a reason or \
                  delete it"
                 (where e) (String.concat ", " srcs))
        | Own_unit_only ->
            Some
              (where e
             ^ ": nothing outside its unit references it; drop it from the \
                .mli")
        | Unreferenced ->
            Some (where e ^ ": nothing references it; delete it"))
      exports
  in
  let from_allowlist =
    List.filter_map
      (fun (name, reason) ->
        if not (List.exists (fun e -> e.name = name) exports) then
          Some (name ^ ": allowlisted, but no such export")
        else if String.trim reason = "" then
          Some (name ^ ": allowlisted without a reason")
        else None)
      allowlist
  in
  from_exports @ from_allowlist
