(* D12 pool-discipline: must-release dataflow over acquired pool values.

   The simulator's hot path recycles message cells through [Net.acquire]/
   [Net.release] and Dtree recycles node ids through [alloc]/[free_slot].
   A cell that leaks silently shrinks the pool back into the allocator
   (undoing the zero-alloc work D11 proves); a cell released twice sits in
   the free list twice and is handed to two owners at once. Neither bug
   trips a functional test until long after the corrupting line ran, so
   the discipline is enforced statically.

   Roles are declared with attributes and harvested across every scanned
   unit, so cross-module calls resolve:

   - [[@@dynlint.pool_acquire]]  — the function returns an owned value.
   - [[@@dynlint.pool_release]]  — the function consumes an owned value.
   - [[@@dynlint.transfers_ownership]] — the function takes the value
     onward (enqueue, deliver): a call counts as the release.

   Each [let v = acquire ...] binding is then abstractly interpreted over
   its scope, per variable and path-sensitively: the abstract state is the
   set of possible consume counts {0, 1, >=2}, branches union, a [while]/
   [for] body is unrolled twice so a release inside a loop over an acquire
   outside it is seen as a double. Consumes are calls to release/transfer
   roles with the variable as a direct argument, a tail-position return of
   the variable, or a tail return embedding it in a freshly built value
   (ownership moves to the caller). Uses as a plain argument, array index
   or mutation target are borrows. Escapes — storing into a mutable field,
   embedding in a heap structure off the return path, capture by a closure,
   pushing into a container, [ref]/[:=] — are findings: a pooled value must
   not outlive its release. A raising head ([invalid_arg]/[failwith]/
   [raise]/[exit]) reached while the count may still be 0 is an
   exception-path leak unless a surrounding [try] can catch it (the
   handler is then analysed as if entered with the value still held).
   Running a continuation read from a record field (or a function-typed
   parameter) while the count may be 0 is a finding too: the pool contract
   is copy-what-you-need, release, then call — the continuation may raise
   or re-enter the pool.

   An acquire whose result is not bound at all is a leak unless it is in
   tail position or a direct argument of a release/transfer role — this is
   what catches [ignore (alloc t)]. An acquire bound at module level can
   never be scoped and is flagged outright.

   Deliberate limits: the value is tracked under its binding name only —
   an alias ([let w = v]) or a value threaded through an unannotated
   helper is not followed; annotate the helper instead. *)

open Typedtree

(* ---------- role attributes ---------- *)

type role = Acquire | Release | Transfer

let role_of_attrs (attrs : Parsetree.attributes) =
  List.fold_left
    (fun acc (a : Parsetree.attribute) ->
      match a.attr_name.txt with
      | "dynlint.pool_acquire" -> Some Acquire
      | "dynlint.pool_release" -> Some Release
      | "dynlint.transfers_ownership" -> Some Transfer
      | _ -> acc)
    None attrs

(* Role table keyed (unit, value-name), harvested from the module-level
   declarations (lets and externals) of every scanned unit. *)
let harvest_roles units =
  let roles = Hashtbl.create 32 in
  List.iter
    (fun (u : Cmt_load.unit_info) ->
      List.iter
        (fun (d : Cmt_load.decl) ->
          match (d.d_top, role_of_attrs d.d_attrs, d.d_name) with
          | true, Some r, Some name -> Hashtbl.replace roles (u.ui_name, name) r
          | _ -> ())
        u.ui_decls)
    units;
  roles

(* ---------- per-unit context ---------- *)

type ctx = {
  emitter : Lint.emitter;
  roles : (string * string, role) Hashtbl.t;
  unit_name : string;
  binds : (string, expression) Hashtbl.t;  (* the unit's let-bound idents *)
}

let role_of_path ctx p =
  Option.bind
    (Cmt_load.qualify ~unit_name:ctx.unit_name (Cmt_load.head p))
    (Hashtbl.find_opt ctx.roles)

let head_role ctx fn =
  match fn.exp_desc with
  | Texp_ident (p, _, _) -> role_of_path ctx p
  | _ -> None

let head_name fn =
  match Cmt_load.callee fn with
  | Some comps -> String.concat "." comps
  | None -> "<fun>"

(* ---------- the abstract domain ---------- *)

(* Consume-count set as a bitmask: bit 0 = "0 so far", bit 1 = "exactly 1",
   bit 2 = ">= 2". Branches union with [lor]. *)
let has_zero st = st land 1 <> 0
let consumed_once st = st land 6 <> 0
let consume st = (if st land 1 <> 0 then 2 else 0) lor (if st land 6 <> 0 then 4 else 0)

(* Sentinel after a finding was emitted for this path: exactly-once, so the
   one root cause does not cascade into leak/double noise downstream. *)
let settled = 2

(* Containers whose insertion functions keep a reference to the argument
   beyond the call: handing a pooled value to one is an escape. *)
let sink_name = function
  | [ "Hashtbl"; ("add" | "replace") ] -> Some "a Hashtbl"
  | [ "Queue"; ("push" | "add") ] -> Some "a Queue"
  | [ "Stack"; "push" ] -> Some "a Stack"
  | [ "Buffer"; f ] when String.length f > 4 && String.sub f 0 4 = "add_" ->
      Some "a Buffer"
  | [ "ref" ] | [ ":=" ] -> Some "a ref cell"
  | _ -> None

type tctx = {
  c : ctx;
  key : string;  (* unique name of the tracked binding *)
  var : string;  (* display name *)
  acq_loc : Location.t;
  acq_head : string;  (* "Net.acquire", for messages *)
  mutable in_try : int;
  mutable dead : bool;  (* a finding was already emitted for this value *)
}

let is_key t e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Ident.unique_name id = t.key
  | _ -> false

(* Exactly one finding per tracked value: the first root cause wins, and
   the abstract state it leaves behind would otherwise cascade into
   spurious escape/double noise on every later use. Unless told otherwise,
   the finding links back to the acquire site. *)
let report t ?related loc msg =
  if not t.dead then begin
    t.dead <- true;
    let related =
      match related with
      | Some r -> r
      | None ->
          [ Lint.related_of_loc ~msg:(Printf.sprintf "'%s' acquired here" t.var) t.acq_loc ]
    in
    Lint.emit ~related t.c.emitter Lint.Pool_discipline loc msg
  end

let emit_double t loc =
  report t loc
    (Printf.sprintf
       "'%s' is released or handed off again here, but some path already consumed it"
       t.var)

let emit_escape t loc what =
  report t loc
    (Printf.sprintf
       "'%s' (acquired from %s) escapes into %s: a pooled value must not outlive its release"
       t.var t.acq_head what)

let emit_exn_leak t loc =
  report t
    ~related:[ Lint.related_of_loc ~msg:"raises here with the value still held" loc ]
    t.acq_loc
    (Printf.sprintf
       "'%s' acquired from %s leaks if this scope raises: release before raising or catch and release"
       t.var t.acq_head)

let emit_held_cont t loc =
  report t loc
    (Printf.sprintf
       "a continuation runs while '%s' may still be held: copy the fields you need, release, then call it"
       t.var)

let is_assert_false cond =
  match cond.exp_desc with
  | Texp_construct (_, { Types.cstr_name = "false"; _ }, _) -> true
  | _ -> false

(* ---------- the walk ---------- *)

(* [scan] discovers acquire sites (binding them spawns [track]); [eval] is
   the per-variable interpreter: state in, state out, findings on the way.
   [tail] marks expressions whose value is the enclosing function's result;
   [consumed] marks expressions that are a direct argument of a release or
   transfer role, so [release t (acquire t)] is not a drop. *)
let rec scan ctx ~tail ~consumed e =
  match e.exp_desc with
  | Texp_apply (fn, args) when head_role ctx fn = Some Acquire ->
      if not (tail || consumed) then
        Lint.emit ctx.emitter Lint.Pool_discipline e.exp_loc
          (Printf.sprintf
             "the value acquired from %s is dropped: bind it and release it on every path"
             (head_name fn));
      List.iter
        (fun (_, a) -> Option.iter (scan ctx ~tail:false ~consumed:false) a)
        args
  | Texp_apply (fn, args) ->
      let arg_consumed =
        match head_role ctx fn with
        | Some (Release | Transfer) -> true
        | _ -> false
      in
      scan ctx ~tail:false ~consumed:false fn;
      List.iter
        (fun (_, a) ->
          Option.iter (scan ctx ~tail:false ~consumed:arg_consumed) a)
        args
  | Texp_let (_, vbs, body) ->
      List.iter (fun vb -> scan_binding ctx ~tail vb body) vbs;
      scan ctx ~tail ~consumed body
  | Texp_function { cases; _ } ->
      List.iter
        (fun c ->
          Option.iter (scan ctx ~tail:false ~consumed:false) c.c_guard;
          scan ctx ~tail:true ~consumed:false c.c_rhs)
        cases
  | Texp_sequence (a, b) ->
      scan ctx ~tail:false ~consumed:false a;
      scan ctx ~tail ~consumed b
  | Texp_open (_, body) -> scan ctx ~tail ~consumed body
  | Texp_ifthenelse (c, th, el) ->
      scan ctx ~tail:false ~consumed:false c;
      scan ctx ~tail ~consumed th;
      Option.iter (scan ctx ~tail ~consumed) el
  | Texp_match (scrut, cases, _) ->
      scan ctx ~tail:false ~consumed:false scrut;
      List.iter
        (fun c ->
          Option.iter (scan ctx ~tail:false ~consumed:false) c.c_guard;
          scan ctx ~tail ~consumed c.c_rhs)
        cases
  | Texp_try (body, cases) ->
      scan ctx ~tail:false ~consumed:false body;
      List.iter (fun c -> scan ctx ~tail ~consumed c.c_rhs) cases
  | Texp_construct (_, _, args) | Texp_tuple args ->
      (* ownership may move to the caller inside a freshly built result:
         [Some (time, pop_exn t)] in tail position is a hand-off *)
      List.iter (scan ctx ~tail ~consumed:false) args
  | _ ->
      let it =
        {
          Tast_iterator.default_iterator with
          expr = (fun _ e -> scan ctx ~tail:false ~consumed:false e);
        }
      in
      Tast_iterator.default_iterator.expr it e

and scan_binding ctx ~tail vb body =
  match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
  | (Tpat_var (id, _) | Tpat_alias (_, id, _)), Texp_apply (fn, args)
    when head_role ctx fn = Some Acquire ->
      List.iter
        (fun (_, a) -> Option.iter (scan ctx ~tail:false ~consumed:false) a)
        args;
      track ctx ~key:(Ident.unique_name id) ~var:(Ident.name id)
        ~acq_loc:vb.vb_expr.exp_loc ~acq_head:(head_name fn) ~tail body
  | _ -> scan ctx ~tail:false ~consumed:false vb.vb_expr

and track ctx ~key ~var ~acq_loc ~acq_head ~tail body =
  let t = { c = ctx; key; var; acq_loc; acq_head; in_try = 0; dead = false } in
  let st = eval t ~tail 1 body in
  if has_zero st then
    report t
      ~related:
        [ Lint.related_of_loc ~msg:"this scope can end with the value still held" body.exp_loc ]
      acq_loc
      (Printf.sprintf
         "'%s' acquired from %s is not released on every path: each exit needs a release or a transfer-of-ownership call"
         var acq_head)

and eval t ~tail st e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) when Ident.unique_name id = t.key ->
      if tail then begin
        if consumed_once st then emit_double t e.exp_loc;
        consume st
      end
      else st
  | Texp_ident _ | Texp_constant _ -> st
  (* Non-returning constructs contribute the EMPTY set (0): the normal
     continuation after a [match ... | _ -> .]-style arm never runs, so it
     must not poison downstream releases into false doubles. *)
  | Texp_unreachable -> 0
  | Texp_let (_, vbs, body) ->
      let st =
        List.fold_left (fun st vb -> eval t ~tail:false st vb.vb_expr) st vbs
      in
      eval t ~tail st body
  | Texp_sequence (a, b) -> eval t ~tail (eval t ~tail:false st a) b
  | Texp_open (_, body) -> eval t ~tail st body
  | Texp_ifthenelse (c, th, el) ->
      let st = eval t ~tail:false st c in
      let st_t = eval t ~tail st th in
      let st_f = match el with Some e -> eval t ~tail st e | None -> st in
      st_t lor st_f
  | Texp_match (scrut, cases, _) ->
      let st = eval t ~tail:false st scrut in
      List.fold_left
        (fun acc c ->
          Option.iter (fun g -> ignore (eval t ~tail:false st g)) c.c_guard;
          acc lor eval t ~tail st c.c_rhs)
        0 cases
  | Texp_try (body, cases) ->
      (* the handler can be entered from any point of the body: analyse it
         as if the value may still be held (entry state joined with the
         body's result); raising heads inside the body stay quiet, the
         handler owns the exceptional path *)
      t.in_try <- t.in_try + 1;
      let st_b = eval t ~tail:false st body in
      t.in_try <- t.in_try - 1;
      let entry = st lor st_b in
      List.fold_left
        (fun acc c ->
          Option.iter (fun g -> ignore (eval t ~tail:false entry g)) c.c_guard;
          acc lor eval t ~tail entry c.c_rhs)
        st_b cases
  | Texp_function _ ->
      if Cmt_load.ident_occurs t.key e then begin
        emit_escape t e.exp_loc "a closure that may outlive the release";
        settled
      end
      else st
  | Texp_apply (fn, args) -> eval_apply t ~tail st e fn args
  | Texp_construct (_, cd, args) ->
      eval_build t ~tail st e.exp_loc
        ("the heap-allocated constructor " ^ cd.cstr_name)
        args
  | Texp_tuple args -> eval_build t ~tail st e.exp_loc "a tuple" args
  | Texp_variant (_, arg) ->
      eval_build t ~tail st e.exp_loc "a polymorphic variant"
        (Option.to_list arg)
  | Texp_record { fields; extended_expression; _ } ->
      let args =
        Array.to_list fields
        |> List.filter_map (function
             | _, Overridden (_, fe) -> Some fe
             | _, Kept _ -> None)
      in
      let st =
        match extended_expression with
        | Some base when not (is_key t base) -> eval t ~tail:false st base
        | _ -> st  (* [{ v with ... }] copies fields out: a borrow *)
      in
      eval_build t ~tail st e.exp_loc "a record literal" args
  | Texp_array args -> eval_build t ~tail:false st e.exp_loc "an array" args
  | Texp_field (r, _, _) -> eval t ~tail:false st r
  | Texp_setfield (r, _, ld, v) ->
      if is_key t v then begin
        emit_escape t e.exp_loc
          (Printf.sprintf "the mutable field '%s'" ld.lbl_name);
        settled
      end
      else eval t ~tail:false (eval t ~tail:false st r) v
  | Texp_while (c, b) ->
      let once st = eval t ~tail:false (eval t ~tail:false st c) b in
      let st1 = once st in
      (* second unrolled iteration: a consume inside the loop shows up as a
         double; [sort_uniq] in the emitter collapses re-emissions *)
      let st2 = once (st lor st1) in
      st lor st1 lor st2
  | Texp_for (_, _, lo, hi, _, b) ->
      let st0 = eval t ~tail:false (eval t ~tail:false st lo) hi in
      let st1 = eval t ~tail:false st0 b in
      let st2 = eval t ~tail:false (st0 lor st1) b in
      st0 lor st1 lor st2
  | Texp_assert (cond, _) ->
      if is_assert_false cond then 0 else eval t ~tail:false st cond
  | Texp_lazy _ ->
      if Cmt_load.ident_occurs t.key e then begin
        emit_escape t e.exp_loc "a lazy suspension";
        settled
      end
      else st
  | _ -> st

(* A freshly built structured value: embedding the tracked variable in one
   is an escape — unless the value is the function's own result, where the
   whole structure (and the ownership inside it) moves to the caller. *)
and eval_build t ~tail st loc what args =
  if List.exists (is_key t) args then
    if tail then begin
      if consumed_once st then emit_double t loc;
      let st =
        List.fold_left
          (fun st a -> if is_key t a then st else eval t ~tail:false st a)
          st args
      in
      consume st
    end
    else begin
      emit_escape t loc what;
      settled
    end
  else List.fold_left (fun st a -> eval t ~tail:false st a) st args

and eval_apply t ~tail st app fn args =
  ignore tail;
  let arg_exprs = List.filter_map (fun (_, a) -> a) args in
  let comps = Cmt_load.callee fn in
  match comps with
  | Some c when Cmt_load.raises c ->
      let st =
        List.fold_left (fun st a -> eval t ~tail:false st a) st arg_exprs
      in
      if has_zero st && t.in_try = 0 then emit_exn_leak t app.exp_loc;
      (* the raise never returns: empty set, so the other branch's state
         alone flows onward (a later legit release is not a double) *)
      0
  | Some [ "Array"; ("set" | "unsafe_set") ]
    when (match arg_exprs with _ :: _ :: v :: _ -> is_key t v | _ -> false) ->
      (* the index position is a borrow; the stored value escapes *)
      emit_escape t app.exp_loc "an array slot";
      settled
  | _ -> (
      let key_args = List.filter (is_key t) arg_exprs in
      match head_role t.c fn with
      | (Some Release | Some Transfer) when key_args <> [] ->
          let st =
            List.fold_left
              (fun st a -> if is_key t a then st else eval t ~tail:false st a)
              st arg_exprs
          in
          if consumed_once st then emit_double t app.exp_loc;
          consume st
      | _ -> (
          match comps with
          | Some c when sink_name c <> None && key_args <> [] ->
              emit_escape t app.exp_loc (Option.get (sink_name c));
              settled
          | _ ->
              let st =
                List.fold_left
                  (fun st a -> eval t ~tail:false st a)
                  st arg_exprs
              in
              (* Inside a [try] whose handler is analysed with the value
                 still held, a raising continuation is already covered, so
                 a guarded borrow ([try f c with e -> release; ...]) is
                 sanctioned. *)
              (match fn.exp_desc with
              | Texp_field _ when has_zero st && t.in_try = 0 ->
                  emit_held_cont t app.exp_loc
              | Texp_ident (Path.Pident id, _, _)
                when has_zero st && t.in_try = 0
                     && (not (Hashtbl.mem t.c.binds (Ident.unique_name id)))
                     && Ident.unique_name id <> t.key
                     && role_of_path t.c (Path.Pident id) = None ->
                  (* a function-typed parameter: an opaque continuation *)
                  emit_held_cont t app.exp_loc
              | _ -> ());
              st))

(* ---------- per-unit driver ---------- *)

let scan_unit ctx (str : structure) =
  let top_binding (vb : value_binding) =
    match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
    | (Tpat_var (id, _) | Tpat_alias (_, id, _)), Texp_apply (fn, args)
      when head_role ctx fn = Some Acquire ->
        Lint.emit ctx.emitter Lint.Pool_discipline vb.vb_pat.pat_loc
          (Printf.sprintf
             "'%s' is acquired from %s at module level: it can never be scoped to a release"
             (Ident.name id) (head_name fn));
        List.iter
          (fun (_, a) -> Option.iter (scan ctx ~tail:false ~consumed:false) a)
          args
    | _ -> scan ctx ~tail:false ~consumed:false vb.vb_expr
  in
  let it =
    {
      Tast_iterator.default_iterator with
      structure_item =
        (fun self item ->
          match item.str_desc with
          | Tstr_value (_, vbs) -> List.iter top_binding vbs
          | Tstr_eval (e, _) -> scan ctx ~tail:false ~consumed:false e
          | _ -> Tast_iterator.default_iterator.structure_item self item);
    }
  in
  it.structure it str

let lint_units ~emitter units =
  let roles = harvest_roles units in
  List.iter
    (fun (u : Cmt_load.unit_info) ->
      scan_unit { emitter; roles; unit_name = u.ui_name; binds = u.ui_binds } u.ui_str)
    units
