(* dynlint's own test suite: a fixture corpus with one bad + one
   allow-annotated file per rule, exact rule-id assertions, the allow-file
   and context gates, the typed (cmt) fixtures for D1/D7 and D11/D13, the
   D13 graph artifact (DOT, and JSON read back field by field), SARIF
   output with relatedLocations, the byte-exact SARIF and typed-findings
   goldens, stale-suppression reporting, rule-table sync across --rules /
   SARIF / DESIGN.md (retired ids included), the executable's exit codes,
   and clean-tree silence on the repo's lib/ under every pass. *)

let lib_ctx = { Lint.lib = true; test = false }

let file_findings ?allow ?(ctx = lib_ctx) path =
  let em = Lint.make_emitter ?allow () in
  Lint.lint_file em ~ctx path;
  Lint.emitter_findings em

let ids ?allow ?ctx path =
  List.map (fun f -> Lint.rule_id f.Lint.rule) (file_findings ?allow ?ctx path)

let check_ids name expected got =
  Alcotest.(check (list string)) name expected got

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_bad_fixtures () =
  check_ids "d2_bad" [ "D2"; "D2"; "D2" ] (ids "fixtures/d2_bad.ml");
  check_ids "d3_bad" [ "D3"; "D3"; "D3" ] (ids "fixtures/d3_bad.ml");
  check_ids "d4_bad" [ "D4"; "D4"; "D4" ] (ids "fixtures/d4_bad.ml");
  check_ids "d6_bad" [ "D6"; "D6"; "D6" ] (ids "fixtures/d6_bad.ml")

let test_allow_fixtures () =
  List.iter
    (fun p -> check_ids p [] (ids ("fixtures/" ^ p)))
    [ "d2_allow.ml"; "d3_allow.ml"; "d4_allow.ml"; "d6_allow.ml" ]

let test_context_gates () =
  (* lib-only rules are silent outside lib/ ... *)
  let exe_ctx = { Lint.lib = false; test = false } in
  check_ids "d2 outside lib" [] (ids ~ctx:exe_ctx "fixtures/d2_bad.ml");
  check_ids "d3 outside lib" [] (ids ~ctx:exe_ctx "fixtures/d3_bad.ml");
  check_ids "d6 outside lib" [] (ids ~ctx:exe_ctx "fixtures/d6_bad.ml");
  (* ... but D4 still applies to any non-test code ... *)
  check_ids "d4 outside lib" [ "D4"; "D4"; "D4" ]
    (ids ~ctx:exe_ctx "fixtures/d4_bad.ml");
  (* ... and not to tests *)
  let test_ctx = { Lint.lib = false; test = true } in
  check_ids "d4 in tests" [] (ids ~ctx:test_ctx "fixtures/d4_bad.ml")

let test_ctx_of_path () =
  let check path lib test =
    let c = Lint.ctx_of_path path in
    Alcotest.(check bool) (path ^ " lib") lib c.Lint.lib;
    Alcotest.(check bool) (path ^ " test") test c.Lint.test
  in
  check "lib/core/dist.ml" true false;
  check "test/main.ml" false true;
  check "tools/dynlint/test/fixtures/d2_bad.ml" false true;
  check "bench/experiments.ml" false false

let test_allow_file () =
  let allow = Lint.load_allow_file "fixtures/test.allow" in
  (* suffix entry "d2_bad.ml" suppresses the whole file *)
  check_ids "allow-file ambient" [] (ids ~allow "fixtures/d2_bad.ml");
  (* multi-component suffix "fixtures/d4_bad.ml" matches too *)
  check_ids "allow-file unsafe" [] (ids ~allow "fixtures/d4_bad.ml");
  (* entries are per rule: D1/D3/D6 fixtures are untouched by this file *)
  check_ids "allow-file scoped" [ "D3"; "D3"; "D3" ]
    (ids ~allow "fixtures/d3_bad.ml")

let test_report_format () =
  match file_findings "fixtures/d2_bad.ml" with
  | f :: _ ->
      let line = Lint.finding_to_string f in
      let prefix = "fixtures/d2_bad.ml:3:16 [D2 ambient]" in
      let lp = String.length prefix in
      Alcotest.(check string) "report prefix" prefix
        (if String.length line >= lp then String.sub line 0 lp else line)
  | [] -> Alcotest.fail "d2_bad.ml should have findings"

(* ---------------------------------------------------------------- *)
(* Typed (cmt) passes over the fixtures_typed mini-projects. Each fixture
   is a real dune library; its cmts live under .objs in the test's own
   build directory. Every run shares one emitter over one unit list, the
   same wiring the driver uses; each fixture runs only its own passes. *)

let fixture_units dir = Cmt_load.load_dirs [ "fixtures_typed/" ^ dir ]
let fixture_emitter () = Lint.make_emitter ~source_root:"../../.." ()

(* D1, D7 and D11 *)
let typed_run ?(emitter = fixture_emitter ()) units =
  Lint.register_units emitter units;
  Lint_typed.lint_units ~emitter units;
  Lint_alloc.lint_units ~emitter units;
  Lint.emitter_findings emitter

let typed_findings ?emitter dir = typed_run ?emitter (fixture_units dir)

let typed_ids dir =
  List.map (fun f -> Lint.rule_id f.Lint.rule) (typed_findings dir)

let test_d7 () =
  (* the local ref, the module-level Hashtbl, the Buffer under a second
     Pool.map, and the Hashtbl captured by the ident-bound closure Pool.map
     chases *)
  check_ids "d7_bad" [ "D7"; "D7"; "D7"; "D7" ] (typed_ids "d7_bad");
  (match
     List.find_opt
       (fun f -> contains f.Lint.msg "'seen'")
       (typed_findings "d7_bad")
   with
  | Some _ -> ()
  | None -> Alcotest.fail "ident-bound closure capture of 'seen' not chased");
  check_ids "d7_allow" [] (typed_ids "d7_allow")

let test_d7_cross_module () =
  match typed_findings "d7_cross" with
  | [ f ] ->
      Alcotest.(check string) "rule" "D7" (Lint.rule_id f.Lint.rule);
      Alcotest.(check bool) "names the foreign unit's value" true
        (contains f.Lint.msg "Shared.total")
  | fs ->
      Alcotest.failf "d7_cross: expected exactly 1 finding, got %d"
        (List.length fs)

let test_d1 () =
  (* one finding per shape, in source order, naming the binding and what
     it keeps; the module-level function, the [let () =] entry point and
     the function reading [ambient] are not among them *)
  let findings = typed_findings "d1_bad" in
  check_ids "d1_bad" (List.init 11 (fun _ -> "D1"))
    (List.map (fun f -> Lint.rule_id f.Lint.rule) findings);
  List.iter2
    (fun (name, kind) (f : Lint.finding) ->
      Alcotest.(check bool) (name ^ " keeps " ^ kind) true
        (contains f.msg
           ("module-level '" ^ name ^ "' keeps mutable state (" ^ kind ^ ")")))
    [
      ("table", "Hashtbl.t");
      ("total", "ref");
      ("buf", "Buffer.t");
      ("lazy_queue", "Queue.t");
      ("made", "array");
      ("literal", "array");
      ("scratch", "bytes");
      ("counter", "mutable record");
      ("ambient", "Rng.t");
      ("hidden", "Rng.t");
      ("remember", "Hashtbl.t");
    ]
    findings;
  check_ids "d1_allow" [] (typed_ids "d1_allow")

let test_d11 () =
  let findings = typed_findings "d11_bad" in
  check_ids "d11_bad" (List.init 12 (fun _ -> "D11"))
    (List.map (fun f -> Lint.rule_id f.Lint.rule) findings);
  let has sub = List.exists (fun f -> contains f.Lint.msg sub) findings in
  (* one spot-check per allocation kind, in fixture order *)
  Alcotest.(check bool) "closure capture named" true
    (has "closure capturing 'n'");
  Alcotest.(check bool) "tuple construction" true (has "tuple construction");
  Alcotest.(check bool) "float boxing" true (has "returns float");
  Alcotest.(check bool) "partial application" true (has "partial application");
  Alcotest.(check bool) "escaping ref" true (has "ref cell 'r' escapes");
  Alcotest.(check bool) "record literal" true (has "record literal");
  Alcotest.(check bool) "array literal" true (has "array literal");
  Alcotest.(check bool) "poly compare" true (has "polymorphic compare");
  Alcotest.(check bool) "constructor payload" true
    (has "constructor Some with payload");
  (* the same-unit chase reports the callee's allocation at the call site *)
  Alcotest.(check bool) "chased callee" true (has "calls 'helper'");
  Alcotest.(check bool) "compare operator on a type variable" true
    (has "polymorphic = dispatches");
  Alcotest.(check bool) "compare operator on a locally abstract type" true
    (has "(in zero-alloc Fixture.poly_abstract)");
  (* findings name the annotated owner *)
  Alcotest.(check bool) "owner attribution" true
    (has "(in zero-alloc Fixture.pair)");
  check_ids "d11_good" [] (typed_ids "d11_good")

let test_d11_cross_module () =
  match typed_findings "d11_cross" with
  | [ f ] ->
      Alcotest.(check string) "rule" "D11" (Lint.rule_id f.Lint.rule);
      Alcotest.(check bool) "flagged in the caller" true
        (contains f.Lint.file "caller.ml");
      Alcotest.(check bool) "names the unproven callee" true
        (contains f.Lint.msg "Callee.boxes")
  | fs ->
      Alcotest.failf "d11_cross: expected exactly 1 finding, got %d"
        (List.length fs)

let test_d11_assume () = check_ids "d11_assume" [] (typed_ids "d11_assume")

let test_d11_allow () =
  let emitter = fixture_emitter () in
  check_ids "d11_allow suppressed" []
    (List.map
       (fun f -> Lint.rule_id f.Lint.rule)
       (typed_findings ~emitter "d11_allow"));
  let d11_only = function Lint.Zero_alloc -> true | _ -> false in
  match Lint.stale_findings ~in_scope:d11_only emitter with
  | [ stale ] ->
      Alcotest.(check string) "stale is D10" "D10" (Lint.rule_id stale.Lint.rule);
      Alcotest.(check bool) "stale comment located" true
        (contains stale.Lint.file "d11_allow/fixture.ml");
      Alcotest.(check int) "stale comment line" 11 stale.Lint.line
  | fs ->
      Alcotest.failf "d11_allow: expected exactly 1 stale finding, got %d"
        (List.length fs)

(* ---------------------------------------------------------------- *)
(* D13 (message flow). *)

let flow_run ?(emitter = fixture_emitter ()) units =
  Lint.register_units emitter units;
  let g = Lint_flow.lint_units ~emitter units in
  (Lint.emitter_findings emitter, g)

let flow_findings ?emitter dir = fst (flow_run ?emitter (fixture_units dir))

let test_d13 () =
  let findings, g = flow_run (fixture_units "d13_bad") in
  (match findings with
  | [ orphan; unreceivable; unresolved ] ->
      check_ids "d13_bad ids" [ "D13"; "D13"; "D13" ]
        [
          Lint.rule_id orphan.Lint.rule;
          Lint.rule_id unreceivable.Lint.rule;
          Lint.rule_id unresolved.Lint.rule;
        ];
      (* the orphan arm is reported at its declaration, linked to the
         universe; the unreceivable tag at its (first) send site, linked
         to the arm *)
      Alcotest.(check bool) "orphan at the arm" true
        (contains orphan.Lint.file "protocol.ml"
        && contains orphan.Lint.msg "Orphan_arm"
        && contains orphan.Lint.msg "no Net.send_to/Net.send_up site");
      Alcotest.(check bool) "orphan links the universe" true
        (match orphan.Lint.related with
        | r :: _ -> contains r.Lint.r_file "protocol.ml"
        | [] -> false);
      Alcotest.(check bool) "unreceivable at the send" true
        (contains unreceivable.Lint.file "sender.ml"
        && contains unreceivable.Lint.msg "Pong"
        && contains unreceivable.Lint.msg "no reachable receiver");
      Alcotest.(check bool) "unreceivable links the arm" true
        (match unreceivable.Lint.related with
        | r :: _ -> contains r.Lint.r_file "protocol.ml"
        | [] -> false);
      Alcotest.(check bool) "opaque tag at the send" true
        (contains unresolved.Lint.file "sender.ml"
        && contains unresolved.Lint.msg "no declared tag-universe constructor")
  | fs ->
      Alcotest.failf "d13_bad: expected exactly 3 findings, got %d"
        (List.length fs));
  (* the graph is still reconstructed around the findings *)
  (match g.Lint_flow.g_universes with
  | [ u ] ->
      Alcotest.(check string) "universe key" "Protocol.suffix"
        u.Lint_flow.u_key;
      Alcotest.(check (list string)) "arms with their wire strings"
        [ "Ping=ping"; "Pong=pong"; "Orphan_arm=orphan" ]
        (List.map
           (fun (a : Lint_flow.arm) ->
             a.a_ctor ^ "=" ^ Option.value ~default:"?" a.a_wire)
           u.Lint_flow.u_arms)
  | us -> Alcotest.failf "expected 1 universe, got %d" (List.length us));
  (match
     List.map
       (fun (e : Lint_flow.edge) ->
         (e.e_ctor, e.e_sender, e.e_receiver))
       g.Lint_flow.g_edges
   with
  | [ ("Ping", "Sender.ping", Some "k_ping"); ("Pong", "Sender.pong", None) ]
    ->
      ()
  | es -> Alcotest.failf "unexpected edge list (%d edges)" (List.length es));
  check_ids "d13_good" []
    (List.map (fun f -> Lint.rule_id f.Lint.rule) (flow_findings "d13_good"));
  check_ids "d13_allow" []
    (List.map (fun f -> Lint.rule_id f.Lint.rule) (flow_findings "d13_allow"))

let test_d13_list () =
  (* a list-form universe: no constructors, so the declaration itself is
     a finding, and every string tag, spelled in the list or not, is
     unresolved *)
  match flow_findings "d13_list" with
  | [ universe; ping; rogue ] ->
      check_ids "d13_list ids" [ "D13"; "D13"; "D13" ]
        (List.map (fun f -> Lint.rule_id f.Lint.rule) [ universe; ping; rogue ]);
      Alcotest.(check bool) "list universe is not a renderer" true
        (contains universe.Lint.file "protocol.ml"
        && contains universe.Lint.msg "not a variant renderer");
      List.iter
        (fun (f, line) ->
          Alcotest.(check bool) "string tag unresolved at its send" true
            (contains f.Lint.file "sender.ml"
            && f.Lint.line = line
            && contains f.Lint.msg "no declared tag-universe constructor"))
        [ (ping, 3); (rogue, 6) ]
  | fs ->
      Alcotest.failf "d13_list: expected exactly 3 findings, got %d"
        (List.length fs)

let test_d13_variant () =
  (* a literal interned past the renderer spells the Pong arm but does not
     send it: the send is unresolved and Pong is an orphan *)
  let findings, g = flow_run (fixture_units "d13_variant") in
  (match findings with
  | [ orphan; literal ] ->
      Alcotest.(check bool) "Pong is an orphan" true
        (contains orphan.Lint.file "protocol.ml"
        && contains orphan.Lint.msg "constructor Pong");
      Alcotest.(check bool) "literal tag unresolved at its send" true
        (contains literal.Lint.file "sender.ml"
        && contains literal.Lint.msg "no declared tag-universe constructor")
  | fs ->
      Alcotest.failf "d13_variant: expected exactly 2 findings, got %d"
        (List.length fs));
  Alcotest.(check (list string)) "only the rendered constructor is an edge"
    [ "Ping" ]
    (List.map (fun (e : Lint_flow.edge) -> e.e_ctor) g.Lint_flow.g_edges)

let test_d1_d13_allow_not_stale () =
  (* the inline allows in the allow fixtures suppress something, so the
     D10 staleness pass must not report them *)
  let emitter = fixture_emitter () in
  check_ids "d1_allow suppressed" []
    (List.map
       (fun f -> Lint.rule_id f.Lint.rule)
       (typed_findings ~emitter "d1_allow"));
  check_ids "d13_allow suppressed" []
    (List.map
       (fun f -> Lint.rule_id f.Lint.rule)
       (flow_findings ~emitter "d13_allow"));
  let scope =
    function Lint.Global_state | Lint.Message_flow -> true | _ -> false
  in
  Alcotest.(check int) "used inline allows are not stale" 0
    (List.length (Lint.stale_findings ~in_scope:scope emitter))

(* The JSON artifact read back with Telemetry.Json: every field of every
   universe, arm and edge, in order, against the in-memory graph. *)
let check_graph_json (g : Lint_flow.graph) =
  let module J = Telemetry.Json in
  let fields what keys v =
    match v with
    | J.Obj kvs ->
        Alcotest.(check (list string)) (what ^ " fields") keys (List.map fst kvs)
    | _ -> Alcotest.failf "%s is not an object" what
  in
  let items name v =
    match J.member name v with
    | J.List l -> l
    | _ -> Alcotest.failf "%s is not an array" name
  in
  let str what v expected = Alcotest.(check string) what expected (J.to_str v) in
  let str_opt what v expected =
    Alcotest.(check (option string)) what expected
      (match v with J.Null -> None | v -> Some (J.to_str v))
  in
  let at what v (loc : Location.t) =
    str (what ^ " file") (J.member "file" v) loc.loc_start.pos_fname;
    Alcotest.(check int) (what ^ " line") loc.loc_start.pos_lnum
      (J.to_int (J.member "line" v))
  in
  let j = J.of_string (Lint_flow.to_json g) in
  fields "graph" [ "universes"; "edges" ] j;
  List.iter2
    (fun (u : Lint_flow.universe) ju ->
      fields "universe" [ "key"; "unit"; "file"; "line"; "arms" ] ju;
      str "universe key" (J.member "key" ju) u.u_key;
      str "universe unit" (J.member "unit" ju) u.u_unit;
      at "universe" ju u.u_loc;
      List.iter2
        (fun (a : Lint_flow.arm) ja ->
          fields "arm" [ "ctor"; "wire"; "file"; "line" ] ja;
          str "arm ctor" (J.member "ctor" ja) a.a_ctor;
          str_opt "arm wire" (J.member "wire" ja) a.a_wire;
          at "arm" ja a.a_loc)
        u.u_arms (items "arms" ju))
    g.g_universes (items "universes" j);
  List.iter2
    (fun (e : Lint_flow.edge) je ->
      fields "edge" [ "universe"; "ctor"; "sender"; "receiver"; "file"; "line" ] je;
      str "edge universe" (J.member "universe" je) e.e_universe;
      str "edge ctor" (J.member "ctor" je) e.e_ctor;
      str "edge sender" (J.member "sender" je) e.e_sender;
      str_opt "edge receiver" (J.member "receiver" je) e.e_receiver;
      at "edge" je e.e_loc)
    g.g_edges (items "edges" j)

let test_d13_graph_roundtrip () =
  let _, g = flow_run (fixture_units "d13_bad") in
  check_graph_json g;
  let dot = Lint_flow.to_dot g in
  Alcotest.(check bool) "dot draws the orphan arm" true
    (contains dot "Orphan_arm");
  Alcotest.(check bool) "dot wires sender to tag" true
    (contains dot "\"Sender.ping\" -> \"Protocol.suffix.Ping\"");
  Alcotest.(check bool) "dot marks the dropped continuation" true
    (contains dot "-> \"dropped\"")

let test_graph_real_lib () =
  (* the acceptance bar for the artifact: built over the repo's own lib/,
     the graph lists every constructor of every declared tag universe,
     every send is received, and the JSON form carries every field *)
  let _, g = flow_run (Cmt_load.load_dirs [ "../../../lib" ]) in
  (match g.Lint_flow.g_universes with
  | [ u ] ->
      Alcotest.(check string) "universe key" "Dist.suffix" u.Lint_flow.u_key;
      Alcotest.(check (list string)) "every constructor listed"
        [
          "Agent_down";
          "Agent_reject";
          "Agent_release";
          "Agent_return";
          "Agent_unlock";
          "Agent_up";
          "Reject_wave";
        ]
        (List.sort compare
           (List.map
              (fun (a : Lint_flow.arm) -> a.a_ctor)
              u.Lint_flow.u_arms))
  | us -> Alcotest.failf "expected exactly 1 universe, got %d" (List.length us));
  Alcotest.(check bool) "every constructor has a send site" true
    (List.for_all
       (fun (u : Lint_flow.universe) ->
         List.for_all
           (fun (a : Lint_flow.arm) ->
             List.exists
               (fun (e : Lint_flow.edge) ->
                 e.e_universe = u.u_key && e.e_ctor = a.a_ctor)
               g.Lint_flow.g_edges)
           u.u_arms)
       g.Lint_flow.g_universes);
  Alcotest.(check bool) "every send has a live receiver" true
    (List.for_all
       (fun (e : Lint_flow.edge) -> e.e_receiver <> None)
       g.Lint_flow.g_edges);
  check_graph_json g

(* ---------------------------------------------------------------- *)
(* D10: stale-suppression reporting. *)

let test_stale_allow () =
  let allow = Lint.load_allow_file "fixtures/stale.allow" in
  let em = Lint.make_emitter ~allow () in
  let lint path =
    Lint.lint_file em ~ctx:lib_ctx path;
    List.map (fun f -> Lint.rule_id f.Lint.rule) (Lint.emitter_findings em)
  in
  (* exercises the "unsafe d4_bad.ml" entry ... *)
  check_ids "entry still suppresses" [] (lint "fixtures/d4_bad.ml");
  (* ... and the used inline comment in stale_inline.ml *)
  check_ids "inline still suppresses" [] (lint "fixtures/stale_inline.ml");
  (match Lint.stale_findings em with
  | [ entry; inline ] ->
      check_ids "both are D10" [ "D10"; "D10" ]
        [ Lint.rule_id entry.Lint.rule; Lint.rule_id inline.Lint.rule ];
      (* the dead entry, at its line in the allow file; the pinned
         never-matching entry is exempt *)
      Alcotest.(check string) "entry file" "fixtures/stale.allow" entry.Lint.file;
      Alcotest.(check int) "entry line" 5 entry.Lint.line;
      Alcotest.(check bool) "entry named" true (contains entry.Lint.msg "never_matches.ml");
      (* the dead inline comment on line 1 (line 3's suppressed a D6) *)
      Alcotest.(check string) "inline file" "fixtures/stale_inline.ml" inline.Lint.file;
      Alcotest.(check int) "inline line" 1 inline.Lint.line
  | fs ->
      Alcotest.failf "expected exactly 2 stale findings, got %d"
        (List.length fs));
  (* a typed-only run must not call parsetree-rule suppressions stale *)
  let typed_only =
    function Lint.Parallel_race | Lint.Global_state -> true | _ -> false
  in
  Alcotest.(check int) "out-of-scope suppressions are not stale" 0
    (List.length (Lint.stale_findings ~in_scope:typed_only em))

(* ---------------------------------------------------------------- *)
(* The rule table must read the same everywhere it is rendered: the
   --rules subcommand, the SARIF driver block, and DESIGN.md's table. *)

let test_rules_table_sync () =
  let table = Lint.rules_table () in
  let sarif = Sarif.render [] in
  let design = read_file "../../../DESIGN.md" in
  List.iter
    (fun r ->
      let id = Lint.rule_id r and name = Lint.rule_name r in
      Alcotest.(check bool) (id ^ " row in --rules table") true
        (contains table (id ^ " ") && contains table name);
      Alcotest.(check bool) (id ^ " pass column in --rules table") true
        (contains table (Lint.rule_pass r));
      Alcotest.(check bool) (id ^ " in SARIF rule table") true
        (contains sarif ("\"id\": \"" ^ id ^ "\""));
      Alcotest.(check bool) (id ^ " row in DESIGN.md") true
        (contains design ("| " ^ id ^ " | `" ^ name ^ "` |")))
    Lint.all_rules;
  (* the typed rules are owned by their own passes, and --rules says so *)
  Alcotest.(check string) "D1 owned by the typedtree pass" "typedtree"
    (Lint.rule_pass Lint.Global_state);
  Alcotest.(check string) "D13 owned by the flow pass" "flow"
    (Lint.rule_pass Lint.Message_flow);
  (* retired ids stay retired: no row in either table, and DESIGN.md's
     table says so *)
  let rows = String.split_on_char '\n' table in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " not in --rules table") false
        (List.exists (String.starts_with ~prefix:(id ^ " ")) rows);
      Alcotest.(check bool) (id ^ " not in SARIF rule table") false
        (contains sarif ("\"id\": \"" ^ id ^ "\""));
      Alcotest.(check bool) (id ^ " retired in DESIGN.md") true
        (contains design ("| " ^ id ^ " | retired (was `")))
    [ "D5"; "D8"; "D9"; "D12" ]

(* ---------------------------------------------------------------- *)
(* The installed executable: --rules output, and the hard error on a
   cmt directory that contains no cmts (a silently-empty typed pass used
   to exit 0 and vacuously pass the gate). *)

let exe = "../dynlint.exe"

let test_exe_rules () =
  let out = Filename.temp_file "dynlint_rules" ".txt" in
  let rc = Sys.command (Printf.sprintf "%s --rules > %s" exe (Filename.quote out)) in
  Alcotest.(check int) "--rules exits 0" 0 rc;
  let printed = read_file out in
  Sys.remove out;
  Alcotest.(check string) "--rules prints the live table"
    (Lint.rules_table ()) printed

let test_exe_empty_cmt () =
  let rc =
    Sys.command
      (Printf.sprintf "%s --cmt no_such_dir fixtures 2> /dev/null" exe)
  in
  Alcotest.(check int) "missing/empty --cmt dir is exit 2" 2 rc

(* Run the executable; return its exit code and stderr. *)
let run_exe args =
  let err = Filename.temp_file "dynlint_err" ".txt" in
  let rc =
    Sys.command (Printf.sprintf "%s %s > /dev/null 2> %s" exe args (Filename.quote err))
  in
  let stderr = read_file err in
  Sys.remove err;
  (rc, stderr)

(* Inputs that lint nothing are errors, not a silent clean pass. *)
let test_exe_missing_path () =
  let rc, stderr = run_exe "no_such_dir" in
  Alcotest.(check int) "missing PATH is exit 2" 2 rc;
  Alcotest.(check bool) "message names the input" true (contains stderr "no_such_dir")

let test_exe_unreadable_cmt () =
  let dir = Filename.temp_dir "dynlint_cmt" "" in
  let cmt = Filename.concat dir "broken.cmt" in
  let oc = open_out cmt in
  output_string oc "not a cmt";
  close_out oc;
  let rc, stderr = run_exe ("--cmt " ^ Filename.quote dir) in
  Sys.remove cmt;
  Sys.rmdir dir;
  Alcotest.(check int) "unreadable cmt is exit 2" 2 rc;
  Alcotest.(check bool) "message names the cmt" true (contains stderr "broken.cmt")

(* An artifact that cannot be written is a clean exit 2, never an uncaught
   Sys_error (whose runtime crash also exits 2, hence the stderr check). *)
let test_exe_unwritable_artifact () =
  List.iter
    (fun args ->
      let rc, stderr = run_exe args in
      Alcotest.(check int) (args ^ " is exit 2") 2 rc;
      Alcotest.(check bool) (args ^ " does not crash") false
        (contains stderr "Fatal error");
      Alcotest.(check bool) (args ^ " names the file") true
        (contains stderr "cannot write /nonexistent/dir/"))
    [
      "--sarif /nonexistent/dir/x.sarif fixtures/d2_allow.ml";
      "--cmt fixtures_typed/d13_good --graph /nonexistent/dir/g.dot";
    ]

let test_exe_time_budget () =
  (* budget exceeded trumps the findings exit code: CI must see the gate's
     own cost blowing up, not just the lint verdict *)
  let rc =
    Sys.command
      (Printf.sprintf "%s --time-budget-ms 0 fixtures > /dev/null 2> /dev/null"
         exe)
  in
  Alcotest.(check int) "blown budget is exit 3" 3 rc

let test_exe_graph_needs_cmt () =
  let rc =
    Sys.command
      (Printf.sprintf
         "%s --graph never_written.dot fixtures > /dev/null 2> /dev/null" exe)
  in
  Alcotest.(check int) "--graph without --cmt is exit 2" 2 rc;
  Alcotest.(check bool) "no artifact was written" false
    (Sys.file_exists "never_written.dot")

let test_exe_graph_artifact () =
  let dot = Filename.temp_file "dynlint_graph" ".dot" in
  let json = Filename.temp_file "dynlint_graph" ".json" in
  let rc =
    Sys.command
      (Printf.sprintf
         "%s --cmt fixtures_typed/d13_good --graph %s --graph %s > /dev/null \
          2> /dev/null"
         exe (Filename.quote dot) (Filename.quote json))
  in
  Alcotest.(check int) "clean fixture exits 0" 0 rc;
  let d = read_file dot and j = read_file json in
  Sys.remove dot;
  Sys.remove json;
  Alcotest.(check bool) "dot artifact lists both tags" true
    (contains d "Protocol.suffix.Ping" && contains d "Protocol.suffix.Pong");
  match Telemetry.Json.(member "edges" (of_string j)) with
  | Telemetry.Json.List edges ->
      Alcotest.(check int) "json artifact has both edges" 2 (List.length edges)
  | _ -> Alcotest.fail "artifact JSON has no edge list"

(* ---------------------------------------------------------------- *)
(* SARIF output. *)

(* One finding source per typed generation: D1 (no related locations) and
   D13 (relatedLocations). *)
let golden_findings () = typed_findings "d1_bad" @ flow_findings "d13_bad"

(* Regenerate with
     DYNLINT_REGEN_GOLDEN=1 dune build @tools/dynlint/runtest
     cp _build/default/tools/dynlint/test/fixtures/sarif_golden.json \
        tools/dynlint/test/fixtures/sarif_golden.json
   (the test writes into its own sandbox; the copy promotes it). *)
let test_sarif_golden () =
  let rendered = Sarif.render (golden_findings ()) in
  if Sys.getenv_opt "DYNLINT_REGEN_GOLDEN" <> None then begin
    let oc = open_out "fixtures/sarif_golden.json" in
    output_string oc rendered;
    close_out oc
  end;
  Alcotest.(check string) "sarif golden"
    (read_file "fixtures/sarif_golden.json")
    rendered

(* Every typed fixture's findings, byte for byte: one block per
   fixtures_typed project in sorted order, all typed passes through one
   emitter in the driver's order, then the typed-scope D10 report, each
   related location on its own indented line. Regenerate like the SARIF
   golden (DYNLINT_REGEN_GOLDEN=1, then copy typed_findings.golden out of
   the sandbox). *)
let typed_findings_report () =
  let b = Buffer.create 8192 in
  let dirs =
    List.filter
      (fun d -> Sys.is_directory (Filename.concat "fixtures_typed" d))
      (List.sort String.compare (Array.to_list (Sys.readdir "fixtures_typed")))
  in
  List.iter
    (fun dir ->
      Buffer.add_string b ("== " ^ dir ^ "\n");
      let emitter = fixture_emitter () in
      let units = fixture_units dir in
      Lint.register_units emitter units;
      Lint_typed.lint_units ~emitter units;
      Lint_alloc.lint_units ~emitter units;
      ignore (Lint_flow.lint_units ~emitter units);
      let stale =
        Lint.stale_findings
          ~in_scope:(fun r -> Lint.rule_pass r <> "parsetree")
          emitter
      in
      List.iter
        (fun (f : Lint.finding) ->
          Buffer.add_string b (Lint.finding_to_string f ^ "\n");
          List.iter
            (fun (r : Lint.related) ->
              Buffer.add_string b
                (Printf.sprintf "  related %s:%d:%d %s\n" r.r_file r.r_line
                   r.r_col r.r_msg))
            f.related)
        (List.sort Lint.compare_findings (Lint.emitter_findings emitter @ stale)))
    dirs;
  Buffer.contents b

let test_typed_findings_golden () =
  let rendered = typed_findings_report () in
  if Sys.getenv_opt "DYNLINT_REGEN_GOLDEN" <> None then begin
    let oc = open_out "fixtures/typed_findings.golden" in
    output_string oc rendered;
    close_out oc
  end;
  Alcotest.(check string) "typed findings golden"
    (read_file "fixtures/typed_findings.golden")
    rendered

let test_sarif_structure () =
  let findings = golden_findings () in
  let module J = Telemetry.Json in
  let json = J.of_string (Sarif.render findings) in
  let as_list name = function
    | J.List l -> l
    | _ -> Alcotest.failf "%s is not an array" name
  in
  Alcotest.(check string) "version" "2.1.0" (J.to_str (J.member "version" json));
  let run = List.hd (as_list "runs" (J.member "runs" json)) in
  let driver = J.member "driver" (J.member "tool" run) in
  Alcotest.(check string) "driver name" "dynlint"
    (J.to_str (J.member "name" driver));
  Alcotest.(check int) "full rule table" (List.length Lint.all_rules)
    (List.length (as_list "rules" (J.member "rules" driver)));
  let results = as_list "results" (J.member "results" run) in
  Alcotest.(check int) "one result per finding" (List.length findings)
    (List.length results);
  List.iter2
    (fun r (f : Lint.finding) ->
      Alcotest.(check string) "ruleId" (Lint.rule_id f.rule)
        (J.to_str (J.member "ruleId" r));
      Alcotest.(check string) "message" f.msg
        (J.to_str (J.member "text" (J.member "message" r)));
      let loc =
        J.member "physicalLocation"
          (List.hd (as_list "locations" (J.member "locations" r)))
      in
      Alcotest.(check string) "uri" f.file
        (J.to_str (J.member "uri" (J.member "artifactLocation" loc)));
      let region = J.member "region" loc in
      Alcotest.(check int) "startLine" f.line (J.to_int (J.member "startLine" region));
      (* SARIF columns are 1-based; findings are 0-based *)
      Alcotest.(check int) "startColumn" (f.col + 1)
        (J.to_int (J.member "startColumn" region));
      (* the fingerprint is line-free: md5 of rule + file + message only *)
      let fp =
        J.to_str
          (J.member "dynlintFinding/v1" (J.member "partialFingerprints" r))
      in
      Alcotest.(check string) "partialFingerprint"
        (Digest.to_hex
           (Digest.string
              (String.concat "\x00" [ Lint.rule_id f.rule; f.file; f.msg ])))
        fp;
      (* a finding's related list surfaces one-to-one as relatedLocations *)
      match f.related with
      | [] -> ()
      | rels ->
          let jrels =
            as_list "relatedLocations" (J.member "relatedLocations" r)
          in
          Alcotest.(check int) "relatedLocations arity" (List.length rels)
            (List.length jrels);
          List.iter2
            (fun jr (rel : Lint.related) ->
              let ploc = J.member "physicalLocation" jr in
              Alcotest.(check string) "related uri" rel.Lint.r_file
                (J.to_str (J.member "uri" (J.member "artifactLocation" ploc)));
              let region = J.member "region" ploc in
              Alcotest.(check int) "related startLine" rel.Lint.r_line
                (J.to_int (J.member "startLine" region));
              Alcotest.(check int) "related startColumn" (rel.Lint.r_col + 1)
                (J.to_int (J.member "startColumn" region));
              Alcotest.(check string) "related message" rel.Lint.r_msg
                (J.to_str (J.member "text" (J.member "message" jr))))
            jrels rels)
    results findings;
  (* the combined corpus really exercises the relatedLocations path *)
  Alcotest.(check bool) "some finding carries relatedLocations" true
    (List.exists (fun (f : Lint.finding) -> f.related <> []) findings)

(* ---------------------------------------------------------------- *)
(* The real tree must stay silent under both passes: same invocation
   shape as the @lint alias, restricted to lib/ (bin/ and bench/ are not
   test deps). *)

let test_clean_tree () =
  let allow = Lint.load_allow_file "../../../dynlint.allow" in
  let em = Lint.make_emitter ~allow () in
  Lint.lint_tree em ~root:"../../.." [ "lib" ];
  Alcotest.(check (list string)) "lib/ is dynlint-clean" []
    (List.map Lint.finding_to_string (Lint.emitter_findings em))

let test_clean_tree_typed () =
  let allow = Lint.load_allow_file "../../../dynlint.allow" in
  let findings =
    typed_run
      ~emitter:(Lint.make_emitter ~allow ~source_root:"../../.." ())
      (Cmt_load.load_dirs [ "../../../lib" ])
  in
  Alcotest.(check (list string)) "lib/ cmts are dynlint-clean" []
    (List.map Lint.finding_to_string findings)

let test_clean_tree_flow () =
  (* the flow sweep over the repo's own lib (the Dist protocol) must be
     clean *)
  let allow = Lint.load_allow_file "../../../dynlint.allow" in
  let units = Cmt_load.load_dirs [ "../../../lib" ] in
  let emitter = Lint.make_emitter ~allow ~source_root:"../../.." () in
  Lint.register_units emitter units;
  ignore (Lint_flow.lint_units ~emitter units);
  Alcotest.(check (list string)) "lib/ is flow-clean" []
    (List.map Lint.finding_to_string (Lint.emitter_findings emitter))

let () =
  Alcotest.run "dynlint"
    [
      ( "rules",
        [
          Alcotest.test_case "bad fixtures hit their rule" `Quick
            test_bad_fixtures;
          Alcotest.test_case "allow comments silence findings" `Quick
            test_allow_fixtures;
        ] );
      ( "typed rules",
        [
          Alcotest.test_case "parallel-race fixtures (D7)" `Quick test_d7;
          Alcotest.test_case "cross-module capture (D7)" `Quick
            test_d7_cross_module;
          Alcotest.test_case "global state (D1)" `Quick test_d1;
          Alcotest.test_case "stale suppressions (D10)" `Quick
            test_stale_allow;
          Alcotest.test_case "zero-alloc (D11)" `Quick test_d11;
          Alcotest.test_case "cross-module call (D11)" `Quick
            test_d11_cross_module;
          Alcotest.test_case "assume escape hatch (D11)" `Quick
            test_d11_assume;
          Alcotest.test_case "inline allow + stale (D11)" `Quick
            test_d11_allow;
          Alcotest.test_case "message flow (D13)" `Quick test_d13;
          Alcotest.test_case "list-form universe (D13)" `Quick test_d13_list;
          Alcotest.test_case "variant universe (D13)" `Quick test_d13_variant;
          Alcotest.test_case "inline allow + stale (D1/D13)" `Quick
            test_d1_d13_allow_not_stale;
          Alcotest.test_case "graph round-trip (D13)" `Quick
            test_d13_graph_roundtrip;
          Alcotest.test_case "graph over the real lib (D13)" `Quick
            test_graph_real_lib;
        ] );
      ( "gates",
        [
          Alcotest.test_case "rule applicability by context" `Quick
            test_context_gates;
          Alcotest.test_case "path classification" `Quick test_ctx_of_path;
          Alcotest.test_case "allow file suppression" `Quick test_allow_file;
        ] );
      ( "output",
        [
          Alcotest.test_case "finding format" `Quick test_report_format;
          Alcotest.test_case "rule table in sync everywhere" `Quick
            test_rules_table_sync;
          Alcotest.test_case "exe --rules" `Quick test_exe_rules;
          Alcotest.test_case "exe rejects cmt-less dir" `Quick
            test_exe_empty_cmt;
          Alcotest.test_case "exe rejects a missing path" `Quick
            test_exe_missing_path;
          Alcotest.test_case "exe rejects an unreadable cmt" `Quick
            test_exe_unreadable_cmt;
          Alcotest.test_case "exe unwritable artifact is exit 2" `Quick
            test_exe_unwritable_artifact;
          Alcotest.test_case "exe enforces its time budget" `Quick
            test_exe_time_budget;
          Alcotest.test_case "exe --graph needs --cmt" `Quick
            test_exe_graph_needs_cmt;
          Alcotest.test_case "exe --graph artifacts" `Quick
            test_exe_graph_artifact;
          Alcotest.test_case "sarif golden" `Quick test_sarif_golden;
          Alcotest.test_case "typed findings golden" `Quick
            test_typed_findings_golden;
          Alcotest.test_case "sarif structure" `Quick test_sarif_structure;
          Alcotest.test_case "clean tree is silent" `Quick test_clean_tree;
          Alcotest.test_case "clean tree is silent (typed)" `Quick
            test_clean_tree_typed;
          Alcotest.test_case "clean tree is silent (flow)" `Quick
            test_clean_tree_flow;
        ] );
    ]
