(* The shared typed layer: one .cmt load, one index walk per unit, and the
   name resolution every typed pass matches against. Keeping all three
   here means a rule is only its own logic, and four typed passes cost one
   deserialization and one binding walk per unit, not four. *)

open Typedtree

type decl = {
  d_name : string option;
  d_attrs : Parsetree.attributes;
  d_expr : expression option;
  d_loc : Location.t;
  d_top : bool;
}

type unit_info = {
  ui_name : string;
  ui_source : string;
  ui_str : structure;
  ui_binds : (string, expression) Hashtbl.t;
  ui_decls : decl list;
}

(* ---------- name resolution ---------- *)

(* "Mylib__Pool" -> ["Mylib"; "Pool"]; plain "tag_universe" is untouched
   (only double underscores split). *)
let split_dunder s =
  let n = String.length s in
  let rec go acc start i =
    if i + 1 >= n then List.rev (String.sub s start (n - start) :: acc)
    else if s.[i] = '_' && s.[i + 1] = '_' then
      go (String.sub s start (i - start) :: acc) (i + 2) (i + 2)
    else go acc start (i + 1)
  in
  if n = 0 then [ s ] else go [] 0 0

let rec path_components acc = function
  | Path.Pident id -> Ident.name id :: acc
  | Path.Pdot (p, s) -> path_components (s :: acc) p
  | Path.Papply (p, _) -> path_components acc p
  | Path.Pextra_ty (p, _) -> path_components acc p

let norm_path p = List.concat_map split_dunder (path_components [] p)

let drop_stdlib = function "Stdlib" :: (_ :: _ as rest) -> rest | c -> c
let head p = drop_stdlib (norm_path p)

let callee e =
  match e.exp_desc with Texp_ident (p, _, _) -> Some (head p) | _ -> None

let type_head ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (head p)
  | _ -> None

let ends_with ~suffix comps =
  let lc = List.length comps and ls = List.length suffix in
  lc >= ls
  &&
  let rec drop n l =
    if n = 0 then l else match l with _ :: t -> drop (n - 1) t | [] -> []
  in
  drop (lc - ls) comps = suffix

let qualify ~unit_name comps =
  match List.rev comps with
  | f :: m :: _ -> Some (m, f)
  | [ f ] -> Some (unit_name, f)
  | [] -> None

let raises comps =
  List.mem comps
    [ [ "invalid_arg" ]; [ "failwith" ]; [ "raise" ]; [ "raise_notrace" ];
      [ "exit" ] ]

let is_arrow_ty ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

let attr name (attrs : Parsetree.attributes) =
  List.fold_left
    (fun acc (a : Parsetree.attribute) ->
      if a.attr_name.txt = name then Some a else acc)
    None attrs

let has_attr name attrs = attr name attrs <> None

let pat_ident (p : pattern) =
  match p.pat_desc with
  | Tpat_var (id, _) | Tpat_alias (_, id, _) -> Some id
  | _ -> None

let bound_idents e =
  let bound = Hashtbl.create 16 in
  let add id = Hashtbl.replace bound (Ident.unique_name id) () in
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun (type k) self (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_var (id, _) | Tpat_alias (_, id, _) -> add id
          | _ -> ());
          Tast_iterator.default_iterator.pat self p);
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_for (id, _, _, _, _, _) -> add id
          | Texp_function { param; _ } -> add param
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  bound

let ident_occurs key e =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _) when Ident.unique_name id = key ->
              found := true
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !found

(* ---------- the per-unit index ---------- *)

(* One preorder walk: each binding is recorded before its body is
   visited. D11 verifies and D13 lists universes in this order, so it is
   part of their output. *)
let index str =
  let binds = Hashtbl.create 64 and decls = ref [] in
  let add ~top (vb : value_binding) =
    let id = pat_ident vb.vb_pat in
    Option.iter (fun id -> Hashtbl.replace binds (Ident.unique_name id) vb.vb_expr) id;
    decls :=
      {
        d_name = Option.map Ident.name id;
        d_attrs = vb.vb_attributes;
        d_expr = Some vb.vb_expr;
        d_loc = vb.vb_pat.pat_loc;
        d_top = top;
      }
      :: !decls
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_let (_, vbs, _) -> List.iter (add ~top:false) vbs
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
      structure_item =
        (fun self item ->
          (match item.str_desc with
          | Tstr_value (_, vbs) -> List.iter (add ~top:true) vbs
          | Tstr_primitive vd ->
              decls :=
                {
                  d_name = Some vd.val_name.txt;
                  d_attrs = vd.val_attributes;
                  d_expr = None;
                  d_loc = vd.val_loc;
                  d_top = true;
                }
                :: !decls
          | _ -> ());
          Tast_iterator.default_iterator.structure_item self item);
    }
  in
  it.structure it str;
  (binds, List.rev !decls)

(* ---------- loading ---------- *)

let collect_cmt_files dirs =
  let acc = ref [] in
  let rec walk d =
    match Sys.readdir d with
    | exception Sys_error _ -> ()
    | entries ->
        Array.sort compare entries;
        Array.iter
          (fun e ->
            let p = Filename.concat d e in
            if (try Sys.is_directory p with Sys_error _ -> false) then walk p
            else if Filename.check_suffix e ".cmt" then acc := p :: !acc)
          entries
  in
  List.iter
    (fun d ->
      if (try Sys.is_directory d with Sys_error _ -> false) then walk d
      else if Sys.file_exists d then acc := d :: !acc)
    dirs;
  List.rev !acc

let load_files cmts =
  let seen_sources = Hashtbl.create 16 in
  List.filter_map
    (fun cmt ->
      let info =
        try Cmt_format.read_cmt cmt
        with exn ->
          let reason =
            match Location.error_of_exn exn with
            | Some (`Ok err) -> Format.asprintf "%t" err.main.txt
            | _ -> Printexc.to_string exn
          in
          failwith (Printf.sprintf "cannot read %s as a .cmt file (%s)" cmt reason)
      in
      match (info.Cmt_format.cmt_annots, info.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Implementation str, Some src
        when Filename.check_suffix src ".ml" && not (Hashtbl.mem seen_sources src)
        ->
          Hashtbl.replace seen_sources src ();
          let ui_name =
            match List.rev (split_dunder info.Cmt_format.cmt_modname) with
            | last :: _ -> last
            | [] -> info.Cmt_format.cmt_modname
          in
          let ui_binds, ui_decls = index str in
          Some { ui_name; ui_source = src; ui_str = str; ui_binds; ui_decls }
      | _ -> None)
    cmts

let load_dirs dirs = load_files (collect_cmt_files dirs)
