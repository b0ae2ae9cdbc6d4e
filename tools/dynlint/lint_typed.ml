(* The typedtree pass: D7/D9 over the shared cmt units.

   Where lint.ml works purely syntactically, these rules need types (is
   this captured value a Hashtbl.t?) and cross-module visibility (is this
   Rng.t another module's value?), so they read the .cmt files that
   `dune build @check` leaves under _build/**/.objs/byte/. Name
   resolution and the binding table come from Cmt_load's per-unit
   index. *)

open Typedtree

let display_path p = String.concat "." (Cmt_load.norm_path p)

(* The parallel entry points whose closure arguments run on Pool domains. *)
let parallel_target p =
  let c = Cmt_load.norm_path p in
  let hit m f = Cmt_load.ends_with ~suffix:[ m; f ] c in
  if hit "Pool" "map" then Some "Pool.map"
  else if hit "Explore" "sweep" then Some "Explore.sweep"
  else None

(* Types whose values are mutable through their public API: sharing one
   across Pool domains is a race. "ref" is special-cased (its head is
   Stdlib.ref, not M.t). *)
let mutable_containers =
  [ "Hashtbl"; "Buffer"; "Queue"; "Stack"; "Atomic"; "Net"; "Rng"; "Dtree"; "Metrics"; "Sink" ]

let mutable_type_name ty =
  match Option.map List.rev (Cmt_load.type_head ty) with
  | Some ("ref" :: _) -> Some "ref"
  | Some ("t" :: m :: _) when List.mem m mutable_containers -> Some (m ^ ".t")
  | _ -> None

let is_rng_type ty =
  match Cmt_load.type_head ty with
  | Some h -> Cmt_load.ends_with ~suffix:[ "Rng"; "t" ] h
  | None -> false

(* ---------- D7: closure-capture analysis ---------- *)

(* A used ident not bound inside the closure is a capture from the
   enclosing scope. *)
let closure_findings ~target ~emit (closure : expression) =
  let bound = Cmt_load.bound_idents closure in
  let reported = Hashtbl.create 8 in
  let once key f = if not (Hashtbl.mem reported key) then (Hashtbl.replace reported key (); f ()) in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _)
            when not (Hashtbl.mem bound (Ident.unique_name id)) -> (
              match mutable_type_name e.exp_type with
              | Some ty ->
                  once (Ident.unique_name id) (fun () ->
                      emit Lint.Parallel_race e.exp_loc
                        (Printf.sprintf
                           "closure passed to %s captures mutable %s '%s' defined outside the closure; give each parallel task its own state and merge at join (-j N must stay byte-identical to -j 1)"
                           target ty (Ident.name id)))
              | None -> ())
          | Texp_ident ((Path.Pdot _ as p), _, _) -> (
              match mutable_type_name e.exp_type with
              | Some ty ->
                  let name = display_path p in
                  once name (fun () ->
                      emit Lint.Parallel_race e.exp_loc
                        (Printf.sprintf
                           "closure passed to %s reaches module-level mutable %s '%s'; module state is shared across every Pool domain"
                           target ty name))
              | None -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it closure

(* Find the outermost closures in an argument expression (the closure may
   sit under List.map, a tuple, a record, ...) and analyze each. Nested
   closures are covered by the outer analysis: anything they capture from
   outside the outermost closure is still a capture. When the argument is
   (or mentions) a local ident bound earlier — `let worker x = ... in
   Pool.map worker items` — the binding is chased through the unit's
   binding table (Cmt_load.unit_info.ui_binds) and its closures are
   analyzed the same way; the visited set guards against cycles, and the
   chase is local-ident only (module-level functions from other units are
   out of reach of a single cmt). *)
let analyze_closures ~binds ~target ~emit (e : expression) =
  let visited = Hashtbl.create 8 in
  let rec go e =
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun self e' ->
            match e'.exp_desc with
            | Texp_function _ -> closure_findings ~target ~emit e'
            | Texp_ident (Path.Pident id, _, _) -> (
                let key = Ident.unique_name id in
                if not (Hashtbl.mem visited key) then begin
                  Hashtbl.add visited key ();
                  match Hashtbl.find_opt binds key with
                  | Some bound -> go bound
                  | None -> ()
                end)
            | _ -> Tast_iterator.default_iterator.expr self e');
      }
    in
    it.expr it e
  in
  go e

(* ---------- D9: module-level generators ---------- *)

(* D9 part one: Rng.t bound at module level (top-level structure items and
   nested module structures — not expression-local bindings, which are
   exactly where an Rng *should* live). A binding whose own pattern says
   nothing about Rng can still smuggle a generator inside a record field
   or tuple slot of its value, so when the pattern is clean the defining
   expression is walked too — stopping at function boundaries, since a
   module-level *function* that creates a local generator is exactly the
   sanctioned shape. *)
let rec d9_structure ~emit (str : structure) =
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let hit = ref false in
              d9_pattern ~emit:(fun r l m -> hit := true; emit r l m) vb.vb_pat;
              if not !hit then d9_smuggled ~emit vb)
            vbs
      | Tstr_module mb -> d9_module ~emit mb.mb_expr
      | Tstr_recmodule mbs -> List.iter (fun mb -> d9_module ~emit mb.mb_expr) mbs
      | _ -> ())
    str.str_items

and d9_module ~emit (me : module_expr) =
  match me.mod_desc with
  | Tmod_structure s -> d9_structure ~emit s
  | Tmod_constraint (me', _, _, _) -> d9_module ~emit me'
  | _ -> ()

and d9_pattern ~emit (p : pattern) =
  match (p.pat_desc, Cmt_load.pat_ident p) with
  | _, Some id when is_rng_type p.pat_type ->
      emit Lint.Rng_taint p.pat_loc
        (Printf.sprintf
           "module-level Rng.t '%s': every generator must flow from a function parameter or a local Rng.create ~seed, or replays stop being reproducible"
           (Ident.name id))
  | Tpat_alias (sub, _, _), _ -> d9_pattern ~emit sub
  | (Tpat_tuple ps | Tpat_construct (_, _, ps, _)), _ ->
      List.iter (d9_pattern ~emit) ps
  | _ -> ()

and d9_smuggled ~emit (vb : value_binding) =
  let name = Option.fold ~none:"_" ~some:Ident.name (Cmt_load.pat_ident vb.vb_pat) in
  let found = ref None in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.exp_desc with
          | Texp_function _ -> ()
          | _ ->
              (match !found with
              | None when is_rng_type e.exp_type -> found := Some e.exp_loc
              | _ -> ());
              Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it vb.vb_expr;
  Option.iter
    (fun loc ->
      emit Lint.Rng_taint loc
        (Printf.sprintf
           "module-level value '%s' smuggles an Rng.t inside its structure (a record field or tuple slot); thread the generator through as a parameter instead"
           name))
    !found

(* One walk per unit: D7 at parallel call sites, D9 cross-module Rng
   reads; then D9's module-level bindings. *)
let scan_unit ~emit (u : Cmt_load.unit_info) =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
              Option.iter
                (fun target ->
                  List.iter
                    (function
                      | _, Some arg ->
                          analyze_closures ~binds:u.ui_binds ~target ~emit arg
                      | _, None -> ())
                    args)
                (parallel_target p)
          | Texp_ident ((Path.Pdot _ as p), _, _) when is_rng_type e.exp_type ->
              emit Lint.Rng_taint e.exp_loc
                (Printf.sprintf
                   "Rng.t read from module-level value '%s'; thread the generator through as a parameter instead"
                   (display_path p))
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it u.ui_str;
  d9_structure ~emit u.ui_str

(* ---------- the pass over preloaded units ---------- *)

(* The caller loads the cmts once (Cmt_load) and shares the unit list —
   and the emitter — with the alloc/pool/flow passes. *)
let lint_units ~emitter units =
  List.iter (scan_unit ~emit:(Lint.emit emitter)) units
