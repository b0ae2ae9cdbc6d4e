type rule =
  | Global_state
  | Ambient
  | Poly_compare
  | Unsafe
  | Stdout
  | Parallel_race
  | Zero_alloc
  | Stale_allow
  | Message_flow

(* One record per rule: the allow key, the owning pass (the `--rules` table
   prints it, the driver's per-pass timing summary uses the same names, and
   its D10 in_scope gating reads it) and the SARIF description. *)
type rule_info = { id : string; name : string; pass : string; help : string }

let info = function
  | Global_state ->
      { id = "D1"; name = "global-state"; pass = "typedtree";
        help =
          "A module-level value that builds or reaches mutable state (a ref, an \
           array, bytes, a mutable record, or a mutable container such as \
           Hashtbl.t or Rng.t) is shared by every caller and every Pool domain." }
  | Ambient ->
      { id = "D2"; name = "ambient"; pass = "parsetree";
        help =
          "Ambient randomness or wall-clock time breaks seeded replay; only the \
           seeded Rng and simulated Net time exist in the model." }
  | Poly_compare ->
      { id = "D3"; name = "poly-compare"; pass = "parsetree";
        help =
          "Polymorphic compare/hash is visit-order dependent on mutable values; \
           use a monomorphic comparator." }
  | Unsafe ->
      { id = "D4"; name = "unsafe"; pass = "parsetree";
        help = "Obj.magic, Marshal and unannotated assert false are forbidden." }
  | Stdout ->
      { id = "D6"; name = "stdout"; pass = "parsetree";
        help = "lib/ code must not write to stdout; use telemetry or return values." }
  | Parallel_race ->
      { id = "D7"; name = "parallel-race"; pass = "typedtree";
        help =
          "A closure handed to Pool.map/Explore.sweep captures a mutable value \
           defined outside it: that value is shared across domains and the \
           -j N = -j 1 byte-determinism contract breaks." }
  | Stale_allow ->
      { id = "D10"; name = "stale-allow"; pass = "driver";
        help =
          "This allowlist entry or inline allow comment suppresses nothing; dead \
           exceptions accumulate until they hide a real regression." }
  | Zero_alloc ->
      { id = "D11"; name = "zero-alloc"; pass = "alloc";
        help =
          "A function annotated [@@dynlint.zero_alloc] must allocate nothing on \
           any non-raising path: no closures, tuples, records, boxed floats, \
           refs, partial applications, polymorphic compares, or calls into \
           functions not themselves proven or assumed zero-alloc." }
  | Message_flow ->
      { id = "D13"; name = "message-flow"; pass = "flow";
        help =
          "Every constructor of a variant tag universe must have at least one \
           Net.send_to/Net.send_up site and at least one installed delivery \
           continuation: an orphan or unreceivable tag is a protocol hole no \
           runtime test walks." }

let rule_id r = (info r).id
let rule_name r = (info r).name
let rule_pass r = (info r).pass
let rule_help r = (info r).help

let all_rules =
  [
    Global_state; Ambient; Poly_compare; Unsafe; Stdout; Parallel_race;
    Stale_allow; Zero_alloc; Message_flow;
  ]

(* The `dynlint --rules` table: one line per rule. Kept as data (not
   Printf.printf'd in the driver) so the test suite can assert it against
   the SARIF rule table and the DESIGN.md table without spawning a
   process. *)
let rules_table () =
  let row = Printf.sprintf "%-4s %-20s %-10s %s\n" in
  String.concat ""
    (row "ID" "ALLOW-KEY" "PASS" "SUMMARY"
    :: List.map (fun r -> let i = info r in row i.id i.name i.pass i.help) all_rules)

let rule_of_name s = List.find_opt (fun r -> rule_name r = s) all_rules

(* A secondary location attached to a finding: D13 links the universe
   declaration to its orphan constructor and an unreceivable send to its
   arm. Rendered as SARIF relatedLocations. *)
type related = {
  r_file : string;
  r_line : int;
  r_col : int;
  r_msg : string;
}

type finding = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  msg : string;
  related : related list;
}

let finding_to_string f =
  Printf.sprintf "%s:%d:%d [%s %s] %s" f.file f.line f.col (rule_id f.rule)
    (rule_name f.rule) f.msg

let compare_findings a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> Int.compare a.col b.col
      | c -> c)
  | c -> c

(* ------------------------------------------------------------------ *)
(* allowlisting                                                        *)

type allow_entry = {
  arule : rule;
  suffix : string;
  pin : bool;  (* standing-policy entry, exempt from staleness *)
  aline : int;  (* 1-indexed line in the allow file, for stale reports *)
}

type allow = { entries : allow_entry list; allow_path : string }

let no_allow = { entries = []; allow_path = "" }

let is_path_suffix ~suffix path =
  (* [suffix] matches [path] on whole /-separated components from the end *)
  let lp = String.length path and ls = String.length suffix in
  ls <= lp
  && String.sub path (lp - ls) ls = suffix
  && (ls = lp || path.[lp - ls - 1] = '/')

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let split_lines source = Array.of_list (String.split_on_char '\n' source)

let load_allow_file path =
  let entry i raw =
    let line =
      match String.index_opt raw '#' with Some i -> String.sub raw 0 i | None -> raw
    in
    let entry ~pin name suffix =
      match rule_of_name name with
      | Some r -> [ { arule = r; suffix; pin; aline = i + 1 } ]
      | None -> failwith (Printf.sprintf "%s: unknown dynlint rule %S" path name)
    in
    match String.split_on_char ' ' (String.trim line) with
    | [ "" ] -> []
    | [ name; suffix ] -> entry ~pin:false name suffix
    | [ "pin"; name; suffix ] -> entry ~pin:true name suffix
    | _ ->
        failwith
          (Printf.sprintf
             "%s: malformed allow entry %S (want: [pin] <rule-name> <path>)" path raw)
  in
  let lines = Array.to_list (split_lines (read_file path)) in
  { entries = List.concat (List.mapi entry lines); allow_path = path }

let contains_substring hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* ------------------------------------------------------------------ *)
(* the emitter                                                         *)

(* Every pass, parsetree and typed alike, emits through one of these: it
   owns allow-file and inline-allow suppression, records which
   suppressions fired and every inline allow site seen (for D10), caches
   source lines so each linted source is read once across all passes, and
   accumulates the surviving findings. The three D10 lists are
   deduplicated on insert; the scale is tens of entries. *)
type emitter = {
  em_allow : allow;
  em_source_root : string;
  em_lines : (string, string array option) Hashtbl.t;
  mutable em_used_entries : (rule * string) list;
  mutable em_used_inline : (string * int) list;  (* file, comment line *)
  mutable em_inline_sites : (string * int * rule) list;
  mutable em_findings : finding list;
}

let make_emitter ?(allow = no_allow) ?(source_root = ".") () =
  {
    em_allow = allow;
    em_source_root = source_root;
    em_lines = Hashtbl.create 16;
    em_used_entries = [];
    em_used_inline = [];
    em_inline_sites = [];
    em_findings = [];
  }

let add_new x l = if List.mem x l then l else x :: l

let file_allowed em rule path =
  List.exists
    (fun e ->
      if e.arule = rule && is_path_suffix ~suffix:e.suffix path then begin
        em.em_used_entries <- add_new (e.arule, e.suffix) em.em_used_entries;
        true
      end
      else false)
    em.em_allow.entries

(* A finding on line [l] is suppressed by "dynlint: allow <rule-name>" on
   line [l] or [l-1] (1-indexed). *)
let line_allowed em ~file lines rule l =
  let tag = "dynlint: allow " ^ rule_name rule in
  let has l = l >= 1 && l <= Array.length lines && contains_substring lines.(l - 1) tag in
  match List.find_opt has [ l; l - 1 ] with
  | Some l ->
      em.em_used_inline <- add_new (file, l) em.em_used_inline;
      true
  | None -> false

(* Register every "dynlint: allow <rule-name>" site in [lines], so unused
   ones can be reported as stale. The rule name is the longest [a-z-]
   token following the marker; unknown names are ignored (they never
   suppress anything either). *)
let inline_marker = "dynlint: allow "

let scan_inline_allows em ~file lines =
  Array.iteri
    (fun i line ->
      let lm = String.length inline_marker in
      let ll = String.length line in
      let rec find_from ofs =
        if ofs + lm > ll then ()
        else if String.sub line ofs lm = inline_marker then begin
          let start = ofs + lm in
          let stop = ref start in
          while
            !stop < ll
            && (match line.[!stop] with 'a' .. 'z' | '-' -> true | _ -> false)
          do
            incr stop
          done;
          (match rule_of_name (String.sub line start (!stop - start)) with
          | Some r -> em.em_inline_sites <- add_new (file, i + 1, r) em.em_inline_sites
          | None -> ());
          find_from !stop
        end
        else find_from (ofs + 1)
      in
      find_from 0)
    lines

(* The lines of [file] (the key findings carry), read once and registered
   for D10 on first touch. *)
let cached_lines em file read =
  match Hashtbl.find_opt em.em_lines file with
  | Some l -> l
  | None ->
      let l = read () in
      Option.iter (scan_inline_allows em ~file) l;
      Hashtbl.add em.em_lines file l;
      l

(* Sources that cannot be found (a cmt linted outside its workspace) fall
   back to allow-file-only suppression. *)
let touch_source em file =
  cached_lines em file (fun () ->
      let p = Filename.concat em.em_source_root file in
      if Sys.file_exists p then Some (split_lines (read_file p)) else None)

let register_units em units =
  List.iter
    (fun (u : Cmt_load.unit_info) -> ignore (touch_source em u.ui_source))
    units

let add em f = em.em_findings <- f :: em.em_findings

let emit ?(related = []) em rule (loc : Location.t) msg =
  let p = loc.loc_start in
  let f =
    {
      file = p.pos_fname;
      line = p.pos_lnum;
      col = p.pos_cnum - p.pos_bol;
      rule;
      msg;
      related;
    }
  in
  if not (file_allowed em rule f.file) then
    match touch_source em f.file with
    | Some lines when line_allowed em ~file:f.file lines rule f.line -> ()
    | _ -> add em f

let related_of_loc ?(msg = "") (loc : Location.t) =
  let p = loc.loc_start in
  {
    r_file = p.pos_fname;
    r_line = p.pos_lnum;
    r_col = p.pos_cnum - p.pos_bol;
    r_msg = msg;
  }

let emitter_findings em = List.sort_uniq Stdlib.compare em.em_findings

(* Stale-suppression report: allow-file entries (unless pinned) and inline
   allow comments that suppressed no finding across every pass the
   emitter saw. [in_scope] restricts the report to rules a pass actually
   ran — a typed-only invocation must not call the parsetree rules'
   suppressions stale (and vice versa). *)
let stale_findings ?(in_scope = fun _ -> true) em =
  let stale file line msg =
    { file; line; col = 0; rule = Stale_allow; related = []; msg }
  in
  let entry_findings =
    List.filter_map
      (fun e ->
        if
          e.pin
          || (not (in_scope e.arule))
          || List.mem (e.arule, e.suffix) em.em_used_entries
        then None
        else
          Some
            (stale em.em_allow.allow_path e.aline
               (Printf.sprintf
                  "allow entry \"%s %s\" suppresses nothing; delete it or mark \
                   it \"pin\" with a written policy reason"
                  (rule_name e.arule) e.suffix)))
      em.em_allow.entries
  in
  let inline_findings =
    List.filter_map
      (fun (file, line, r) ->
        if (not (in_scope r)) || List.mem (file, line) em.em_used_inline then
          None
        else
          Some
            (stale file line
               (Printf.sprintf
                  "inline \"dynlint: allow %s\" suppresses nothing on this or \
                   the next line; delete it"
                  (rule_name r))))
      em.em_inline_sites
  in
  List.sort compare_findings (entry_findings @ inline_findings)

(* ------------------------------------------------------------------ *)
(* parsetree helpers                                                   *)

open Parsetree

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply _ -> []

(* normalize away an explicit Stdlib. prefix so Stdlib.Sys.time = Sys.time *)
let path_of_lid lid = Cmt_load.drop_stdlib (flatten_lid lid)

let loc_pos (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

(* ------------------------------------------------------------------ *)
(* ident classification per rule                                       *)

(* D2: ambient nondeterminism — wall clock and the global Random state *)
let ambient_msg = function
  | "Random" :: _ ->
      Some "ambient Random: draw from a seeded Rng.t threaded from the caller"
  | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ]
  | [ "Unix"; "gmtime" ] | [ "Unix"; "localtime" ] ->
      Some "wall-clock time: only simulated Net time exists in the model"
  | _ -> None

(* D3 (ident part): polymorphic compare/hash *)
let poly_compare_msg = function
  | [ "compare" ] ->
      Some
        "bare polymorphic compare is visit-order dependent on mutable \
         records; use a monomorphic comparator (Int.compare, \
         String.compare, ...)"
  | [ "Hashtbl"; "hash" ] | [ "Hashtbl"; "seeded_hash" ] ->
      Some "polymorphic Hashtbl.hash on node-carrying values; hash a stable key instead"
  | _ -> None

(* D4 (ident part) *)
let unsafe_ident_msg = function
  | [ "Obj"; "magic" ] -> Some "Obj.magic defeats the type system"
  | "Marshal" :: _ ->
      Some "Marshal is representation-dependent and breaks abstraction"
  | _ -> None

(* D6: stdout writers *)
let stdout_print_names =
  [
    "print_string"; "print_bytes"; "print_int"; "print_float"; "print_char";
    "print_endline"; "print_newline";
  ]

let stdout_msg = function
  | [ n ] when List.mem n stdout_print_names ->
      Some (n ^ " writes to stdout; emit telemetry or return the value")
  | [ "Printf"; "printf" ] | [ "Format"; "printf" ] ->
      Some "printf writes to stdout; emit telemetry or return the value"
  | [ "Format"; n ] when String.length n >= 6 && String.sub n 0 6 = "print_" ->
      Some ("Format." ^ n ^ " writes to std_formatter (stdout)")
  | _ -> None

let equality_ops = [ "="; "<>"; "=="; "!=" ]

let rec strip_expr e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip_expr e
  | _ -> e

let is_record_literal e =
  match (strip_expr e).pexp_desc with Pexp_record _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* the per-file pass                                                   *)

type ctx = { lib : bool; test : bool }

let ctx_of_path path =
  let parts = String.split_on_char '/' path in
  let lib = match parts with "lib" :: _ -> true | _ -> false in
  let test =
    List.exists (fun seg -> seg = "test" || seg = "tests") parts
  in
  { lib; test }

let lint_structure em ~ctx str =
  let on_ident lid loc =
    let p = path_of_lid lid in
    if ctx.lib then (
      (match ambient_msg p with Some m -> emit em Ambient loc m | None -> ());
      (match poly_compare_msg p with
      | Some m -> emit em Poly_compare loc m
      | None -> ());
      match stdout_msg p with Some m -> emit em Stdout loc m | None -> ());
    if not ctx.test then
      match unsafe_ident_msg p with
      | Some m -> emit em Unsafe loc m
      | None -> ()
  in
  let expr_rule self e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> on_ident txt loc
    | Pexp_assert inner when not ctx.test -> (
        match (strip_expr inner).pexp_desc with
        | Pexp_construct ({ txt = Longident.Lident "false"; _ }, None) ->
            emit em Unsafe e.pexp_loc
              "assert false: if the branch is truly unreachable, annotate \
               with (* dynlint: allow unsafe -- reason *)"
        | _ -> ())
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args)
      when ctx.lib -> (
        match (path_of_lid txt, args) with
        | [ op ], [ (_, a); (_, b) ]
          when List.mem op equality_ops
               && (is_record_literal a || is_record_literal b) ->
            emit em Poly_compare loc
              (Printf.sprintf
                 "polymorphic %s on a record literal is visit-order \
                  dependent when fields are mutable; compare a stable \
                  projection instead"
                 op)
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr = expr_rule } in
  it.structure it str

(* The lexer's filename is the display path and the line cache is keyed by
   it, so locations and suppression use the same key as the typed passes'
   cmt source paths: each source is read once per run. *)
let lint_file em ?display ~ctx path =
  let display = Option.value display ~default:path in
  let source = read_file path in
  ignore (cached_lines em display (fun () -> Some (split_lines source)));
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf display;
  match Parse.implementation lexbuf with
  | str -> lint_structure em ~ctx str
  | exception exn ->
      (* an unparseable file cannot be vouched for: not suppressible *)
      let line, col, detail =
        match Location.error_of_exn exn with
        | Some (`Ok err) ->
            let l, c = loc_pos err.main.loc in
            (l, c, Format.asprintf "%t" err.main.txt)
        | _ -> (1, 0, Printexc.to_string exn)
      in
      add em
        {
          file = display;
          line;
          col;
          rule = Unsafe;
          msg = "file does not parse: " ^ detail;
          related = [];
        }

(* ------------------------------------------------------------------ *)
(* tree walk                                                           *)

let rec walk_dir acc dir =
  let entries = Sys.readdir dir in
  Array.sort String.compare entries;
  Array.fold_left
    (fun acc name ->
      if name = "" || name.[0] = '.' || name = "_build" then acc
      else
        let p = Filename.concat dir name in
        if Sys.is_directory p then walk_dir acc p
        else if Filename.check_suffix name ".ml" then p :: acc
        else acc)
    acc entries

let lint_tree em ~root dirs =
  let rel path =
    let prefix = root ^ "/" in
    let lp = String.length prefix in
    if String.length path >= lp && String.sub path 0 lp = prefix then
      String.sub path lp (String.length path - lp)
    else path
  in
  List.iter
    (fun d ->
      let abs = Filename.concat root d in
      List.iter
        (fun abs ->
          let path = rel abs in
          lint_file em ~display:path ~ctx:(ctx_of_path path) abs)
        (if Sys.is_directory abs then List.rev (walk_dir [] abs) else [ abs ]))
    dirs
