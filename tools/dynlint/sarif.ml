(* SARIF 2.1.0 rendering for dynlint findings.

   The layout is written by hand (SARIF viewers are read by people too, so
   it keeps its indentation); strings are escaped through Telemetry.Json.
   One run, one driver, every live rule in the table (so ruleIndex is stable
   whether or not a rule fired), one result per finding. A finding's
   [related] entries (D13's universe <-> orphan and send <-> arm links)
   become SARIF relatedLocations. Columns are
   1-based per the SARIF spec; dynlint's text output is 0-based, so
   startColumn = col + 1. *)

(* Line- and column-free fingerprint over (rule, file, message): a finding
   keeps its identity when unrelated edits shift it down the file, so a
   stacked PR can diff SARIF uploads and surface only genuinely new
   findings. Versioned key per the SARIF partialFingerprints convention. *)
let fingerprint (f : Lint.finding) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ Lint.rule_id f.rule; f.file; f.msg ]))

let rule_index rule =
  let rec idx i = function
    | [] -> 0
    | r :: _ when r = rule -> i
    | _ :: rest -> idx (i + 1) rest
  in
  idx 0 Lint.all_rules

let render findings =
  let b = Buffer.create 4096 in
  let str s = Buffer.add_string b Telemetry.Json.(to_string (String s)) in
  let raw s = Buffer.add_string b s in
  raw "{\n  \"version\": \"2.1.0\",\n  \"$schema\": ";
  str "https://json.schemastore.org/sarif-2.1.0.json";
  raw ",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n";
  raw "          \"name\": \"dynlint\",\n";
  raw "          \"informationUri\": ";
  str "https://example.invalid/dynlint";
  raw ",\n          \"rules\": [\n";
  List.iteri
    (fun i rule ->
      raw "            {\"id\": ";
      str (Lint.rule_id rule);
      raw ", \"name\": ";
      str (Lint.rule_name rule);
      raw ", \"shortDescription\": {\"text\": ";
      str (Lint.rule_help rule);
      raw "}}";
      if i < List.length Lint.all_rules - 1 then raw ",";
      raw "\n")
    Lint.all_rules;
  raw "          ]\n        }\n      },\n      \"results\": [\n";
  List.iteri
    (fun i (f : Lint.finding) ->
      raw "        {\"ruleId\": ";
      str (Lint.rule_id f.rule);
      raw (Printf.sprintf ", \"ruleIndex\": %d" (rule_index f.rule));
      raw ", \"partialFingerprints\": {\"dynlintFinding/v1\": ";
      str (fingerprint f);
      raw "}";
      raw ", \"level\": \"error\", \"message\": {\"text\": ";
      str f.msg;
      raw "}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": {\"uri\": ";
      str f.file;
      raw (Printf.sprintf "}, \"region\": {\"startLine\": %d, \"startColumn\": %d}}}]" f.line (f.col + 1));
      if f.related <> [] then begin
        raw ", \"relatedLocations\": [";
        List.iteri
          (fun j (r : Lint.related) ->
            if j > 0 then raw ", ";
            raw "{\"physicalLocation\": {\"artifactLocation\": {\"uri\": ";
            str r.r_file;
            raw
              (Printf.sprintf
                 "}, \"region\": {\"startLine\": %d, \"startColumn\": %d}}, \
                  \"message\": {\"text\": "
                 r.r_line (r.r_col + 1));
            str r.r_msg;
            raw "}}")
          f.related;
        raw "]"
      end;
      raw "}";
      if i < List.length findings - 1 then raw ",";
      raw "\n")
    findings;
  raw "      ]\n    }\n  ]\n}\n";
  Buffer.contents b
