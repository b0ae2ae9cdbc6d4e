(* dynlint — determinism & domain-safety lint for this repo.

   Usage: dynlint [--rules] [--allow FILE] [--cmt DIR]... [--sarif FILE]
                  [--graph FILE]... [--time-budget-ms N] [PATH...]

   Each PATH is a directory walked recursively or a single .ml file; the
   parsetree pass (D2-D4, D6) runs over those. Each --cmt DIR is searched
   for .cmt files; the cmts are read ONCE into a shared unit list and
   every typed pass runs over it: the typedtree scan (D1, D7), the alloc
   pass (D11) and the flow pass (D13). Every pass emits through one
   shared emitter. PATHs, --cmt DIRs and the source files the cmts name
   (read for inline-allow suppression) are all relative to the working
   directory, the workspace root under dune. A
   PATH that does not exist, a --cmt DIR yielding no .cmt files, or a cmt
   that cannot be read is a hard error (exit 2), because silently linting
   nothing would green-wash a broken build graph. After every pass, any
   allow-file entry or inline allow comment that suppressed nothing is
   itself reported (D10), so dead exceptions cannot accumulate.

   --graph FILE (repeatable) writes the D13 protocol message-flow graph:
   .dot for Graphviz, anything else as JSON. --rules prints the rule table
   and exits. Per-pass wall time is reported on stderr as
   "dynlint: timings(ms) parsetree=... load=... typed=... alloc=...
   flow=... total=..."; --time-budget-ms N exits 3 when the total
   exceeds N, which CI uses to keep the lint gate honest about its own
   cost.

   Prints one "file:line:col [id name] message" per finding, writes the
   findings as SARIF 2.1.0 when --sarif is given (also when clean), and
   exits 1 when there are any findings, 0 on a clean tree. Artifacts
   (--sarif, --graph) are written before any failing exit; one that cannot
   be written is exit 2. See
   tools/dynlint/lint.mli and DESIGN.md "Static analysis" for the rule
   set and the allowlist syntax. *)

let usage =
  "dynlint [--rules] [--allow FILE] [--cmt DIR]... [--sarif FILE] [--graph \
   FILE]... [--time-budget-ms N] [PATH...]"

let () =
  let allow_file = ref None in
  let sarif_file = ref None in
  let graph_files = ref [] in
  let time_budget_ms = ref None in
  let cmt_dirs = ref [] in
  let paths = ref [] in
  let spec =
    [
      ( "--rules",
        Arg.Unit
          (fun () ->
            print_string (Lint.rules_table ());
            exit 0),
        "  print the rule table (id, allow-key, pass, summary) and exit" );
      ( "--allow",
        Arg.String (fun f -> allow_file := Some f),
        "FILE  allowlist file: lines of [pin] <rule-name> <path-suffix>" );
      ( "--cmt",
        Arg.String (fun d -> cmt_dirs := d :: !cmt_dirs),
        "DIR  search DIR for .cmt files and run the typed passes (repeatable)" );
      ( "--sarif",
        Arg.String (fun f -> sarif_file := Some f),
        "FILE  also write the findings as SARIF 2.1.0 to FILE" );
      ( "--graph",
        Arg.String (fun f -> graph_files := f :: !graph_files),
        "FILE  write the D13 message-flow graph (.dot => Graphviz, else \
         JSON; repeatable)" );
      ( "--time-budget-ms",
        Arg.Int (fun n -> time_budget_ms := Some n),
        "N  exit 3 when the total lint wall time exceeds N milliseconds" );
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  let paths = List.rev !paths and cmt_dirs = List.rev !cmt_dirs in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("dynlint: " ^ m);
        exit 2)
      fmt
  in
  if paths = [] && cmt_dirs = [] then (
    prerr_endline usage;
    exit 2);
  let allow =
    match !allow_file with
    | None -> Lint.no_allow
    | Some f -> (
        try Lint.load_allow_file f with Sys_error m | Failure m -> fail "%s" m)
  in
  let write file text =
    try
      let oc = open_out file in
      output_string oc text;
      close_out oc
    with Sys_error m ->
      (* open_out's message already leads with the path *)
      let p = file ^ ": " in
      let lp = String.length p in
      if String.starts_with ~prefix:p m then
        fail "cannot write %s: %s" file (String.sub m lp (String.length m - lp))
      else fail "cannot write %s: %s" file m
  in
  let t_start = Unix.gettimeofday () in
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then fail "%s: no such file or directory" p)
    paths;
  (* An empty --cmt DIR means @check didn't run (or the dir is wrong): the
     typed passes (D1, D7, D11, D13) would silently vacuously pass. *)
  List.iter
    (fun d ->
      if Cmt_load.collect_cmt_files [ d ] = [] then
        fail
          "--cmt %s contains no .cmt files; run `dune build @check` first \
           (typed rules D1/D7/D11/D13 cannot run without cmts)"
          d)
    cmt_dirs;
  let timings = ref [] in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    timings := (name, Unix.gettimeofday () -. t0) :: !timings;
    r
  in
  let emitter = Lint.make_emitter ~allow () in
  timed "parsetree" (fun () ->
      if paths <> [] then Lint.lint_tree emitter ~root:"." paths);
  let graph =
    if cmt_dirs = [] then None
    else begin
      (* one read of every cmt, shared by all three typed passes; every
         unit's source is registered for D10 before any pass runs *)
      let units =
        timed "load" (fun () ->
            let units =
              try Cmt_load.load_dirs cmt_dirs with Failure m -> fail "%s" m
            in
            Lint.register_units emitter units;
            units)
      in
      timed "typed" (fun () -> Lint_typed.lint_units ~emitter units);
      timed "alloc" (fun () -> Lint_alloc.lint_units ~emitter units);
      Some (timed "flow" (fun () -> Lint_flow.lint_units ~emitter units))
    end
  in
  (match (!graph_files, graph) with
  | [], _ -> ()
  | files, Some g ->
      List.iter
        (fun f ->
          write f
            (if Filename.check_suffix f ".dot" then Lint_flow.to_dot g
             else Lint_flow.to_json g))
        files
  | _ :: _, None -> fail "--graph needs --cmt (the flow pass reads cmts)");
  let in_scope rule =
    match Lint.rule_pass rule with
    | "parsetree" -> paths <> []
    | "driver" -> true
    | _ -> cmt_dirs <> []
  in
  let findings =
    List.sort Lint.compare_findings
      (Lint.emitter_findings emitter @ Lint.stale_findings ~in_scope emitter)
  in
  List.iter (fun f -> print_endline (Lint.finding_to_string f)) findings;
  Option.iter (fun f -> write f (Sarif.render findings)) !sarif_file;
  let total_ms = (Unix.gettimeofday () -. t_start) *. 1000. in
  Printf.eprintf "dynlint: timings(ms) %s total=%.1f\n"
    (String.concat " "
       (List.rev_map
          (fun (name, s) -> Printf.sprintf "%s=%.1f" name (s *. 1000.))
          !timings))
    total_ms;
  (match !time_budget_ms with
  | Some budget when total_ms > float_of_int budget ->
      Printf.eprintf
        "dynlint: wall time %.1fms exceeds the --time-budget-ms %d gate\n"
        total_ms budget;
      exit 3
  | _ -> ());
  match findings with
  | [] -> ()
  | fs ->
      Printf.eprintf "dynlint: %d finding(s)\n" (List.length fs);
      exit 1
