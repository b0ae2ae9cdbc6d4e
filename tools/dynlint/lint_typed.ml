(* The typedtree pass: D1/D7 over the shared cmt units.

   Where lint.ml works purely syntactically, these rules need types (is
   this captured value a Hashtbl.t? does this module-level value hold an
   Rng.t in a record field?), so they read the .cmt files that
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

(* ---------- D1: module-level mutable state ---------- *)

(* What D1 looks for in a module-level value: D7's mutable types, arrays,
   bytes and record literals with a mutable field. *)
let state_kind (e : expression) =
  match (e.exp_desc, Cmt_load.type_head e.exp_type) with
  | Texp_record { fields; _ }, _
    when Array.exists
           (fun ((l : Types.label_description), _) -> l.lbl_mut = Asttypes.Mutable)
           fields ->
      Some "mutable record"
  | _, Some [ "array" ] -> Some "array"
  | _, Some [ "bytes" ] -> Some "bytes"
  | _ -> mutable_type_name e.exp_type

(* The first place a value builds or reaches mutable state outside any
   function body. A body runs per call and keeps nothing at module level;
   what a module-level closure captures is built outside its body, so the
   walk still finds it. *)
let first_state (e : expression) =
  let found = ref None in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          match (!found, e.exp_desc) with
          | Some _, _ | None, Texp_function _ -> ()
          | None, _ -> (
              match state_kind e with
              | Some kind -> found := Some (kind, e.exp_loc)
              | None -> Tast_iterator.default_iterator.expr self e));
    }
  in
  it.expr it e;
  !found

(* Module-level bindings, nested module structures included; a functor
   body runs per application, like a function's. [let () =] is an entry
   point: whatever it builds is kept under no name. *)
let rec d1_structure ~emit (str : structure) =
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> List.iter (d1_binding ~emit) vbs
      | Tstr_module mb -> d1_module ~emit mb.mb_expr
      | Tstr_recmodule mbs -> List.iter (fun mb -> d1_module ~emit mb.mb_expr) mbs
      | _ -> ())
    str.str_items

and d1_module ~emit (me : module_expr) =
  match me.mod_desc with
  | Tmod_structure s -> d1_structure ~emit s
  | Tmod_constraint (me', _, _, _) -> d1_module ~emit me'
  | _ -> ()

and d1_binding ~emit (vb : value_binding) =
  match vb.vb_pat.pat_desc with
  | Tpat_construct (_, { cstr_name = "()"; _ }, [], _) -> ()
  | _ ->
      Option.iter
        (fun (kind, loc) ->
          let name =
            match pat_bound_idents vb.vb_pat with
            | [] -> "_"
            | ids -> String.concat ", " (List.map Ident.name ids)
          in
          emit Lint.Global_state loc
            (Printf.sprintf
               "module-level '%s' keeps mutable state (%s), shared by every caller and every Pool domain; build it inside a function and pass it on, or annotate with (* dynlint: allow global-state -- reason *)"
               name kind))
        (first_state vb.vb_expr)

(* One walk per unit for D7 at parallel call sites; then D1's module-level
   bindings. *)
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
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it u.ui_str;
  d1_structure ~emit u.ui_str

(* ---------- the pass over preloaded units ---------- *)

(* The caller loads the cmts once (Cmt_load) and shares the unit list —
   and the emitter — with the alloc and flow passes. *)
let lint_units ~emitter units =
  List.iter (scan_unit ~emit:(Lint.emit emitter)) units
