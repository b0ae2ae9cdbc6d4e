(* tracecat: offline analyzer for dynnet telemetry traces (JSONL, one event
   per line, as written by Sink.write_jsonl / --trace-out).

     tracecat analyze t.jsonl             causal + latency + queue summary
     tracecat analyze t.jsonl --diff u.jsonl
                                          same, with per-metric deltas
     tracecat check t.jsonl               causality invariants; exit 1 on
                                          any violation (the CI smoke)
     tracecat export t.jsonl -o t.trace.json
                                          Chrome/Perfetto trace_event JSON

   The analysis itself lives in Telemetry.Causal (shared with the causality
   tests); this binary is parsing, arithmetic and printing. *)

module C = Telemetry.Causal
module E = Telemetry.Event

let usage () =
  prerr_endline
    "usage: tracecat analyze FILE [--diff FILE2]\n\
    \       tracecat check FILE\n\
    \       tracecat export FILE [-o OUT.trace.json]";
  exit 2

let load file =
  match Telemetry.Sink.read_jsonl file with
  | events -> events
  | exception Sys_error e ->
      Printf.eprintf "tracecat: %s\n" e;
      exit 2
  | exception Failure e ->
      Printf.eprintf "tracecat: %s: malformed trace: %s\n" file e;
      exit 2

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)

type summary = {
  events : int;
  send_count : int;
  deliver_count : int;
  forwarded : int;
  reordered : int;
  traces : int;
  discipline : string;
  cp : C.critical_path;
  latency : (string * C.dist) list;
  queue : C.queue_stats;
  phases : Telemetry.Profile.entry list;
}

let summarize events =
  let send_count = ref 0 and deliver_count = ref 0 in
  let forwarded = ref 0 and reordered = ref 0 in
  List.iter
    (fun (e : E.t) ->
      match e.E.kind with
      | E.Send _ -> incr send_count
      | E.Deliver { forwarded = f; reordered = r; _ } ->
          incr deliver_count;
          if f then incr forwarded;
          if r then incr reordered
      | _ -> ())
    events;
  {
    events = List.length events;
    send_count = !send_count;
    deliver_count = !deliver_count;
    forwarded = !forwarded;
    reordered = !reordered;
    traces = C.trace_count events;
    discipline = Option.value ~default:"(unrecorded)" (C.discipline events);
    cp = C.critical_path events;
    latency = C.latency_by_tag events;
    queue = C.queue_depth events;
    phases = C.phases events;
  }

let delta_i label a b =
  if a <> b then Printf.printf "  %-28s %+d (%d -> %d)\n" label (b - a) a b

let print_summary name s =
  Printf.printf "== %s ==\n" name;
  Printf.printf "  %-28s %d\n" "events" s.events;
  Printf.printf "  %-28s %s\n" "scheduler" s.discipline;
  Printf.printf "  %-28s %d sends, %d delivers (%d forwarded, %d reordered)\n"
    "messages" s.send_count s.deliver_count s.forwarded s.reordered;
  Printf.printf "  %-28s %d\n" "causal traces" s.traces;
  Printf.printf "  %-28s %d hops over sim time [%d, %d] (trace %d)\n"
    "critical path" s.cp.C.hops s.cp.C.start_time s.cp.C.end_time s.cp.C.cp_trace;
  Printf.printf "  %-28s max %d at t=%d, time-weighted mean %.2f, final %d\n"
    "queue depth" s.queue.C.max_depth s.queue.C.max_at
    s.queue.C.time_weighted_mean s.queue.C.final_depth;
  if s.latency <> [] then begin
    Printf.printf "  per-tag latency (sim time):\n";
    Printf.printf "    %-18s %8s %6s %6s %6s %6s %6s %8s\n" "tag" "count" "min"
      "p50" "p90" "p99" "max" "mean";
    List.iter
      (fun (tag, (d : C.dist)) ->
        Printf.printf "    %-18s %8d %6d %6d %6d %6d %6d %8.2f\n" tag d.C.count
          d.C.min_v d.C.p50 d.C.p90 d.C.p99 d.C.max_v d.C.mean)
      s.latency
  end;
  if s.phases <> [] then begin
    let by_alloc =
      List.sort
        (fun (a : Telemetry.Profile.entry) b ->
          Int.compare b.Telemetry.Profile.alloc_bytes a.Telemetry.Profile.alloc_bytes)
        s.phases
    in
    Printf.printf "  top allocating phases:\n";
    Printf.printf "    %-24s %14s %8s %8s %12s %10s\n" "phase" "alloc bytes"
      "minor" "major" "top heap (w)" "wall (s)";
    List.iter
      (fun (p : Telemetry.Profile.entry) ->
        Printf.printf "    %-24s %14d %8d %8d %12d %10.4f\n"
          p.Telemetry.Profile.name p.Telemetry.Profile.alloc_bytes
          p.Telemetry.Profile.minor p.Telemetry.Profile.major
          p.Telemetry.Profile.top_heap_words p.Telemetry.Profile.wall_s)
      by_alloc
  end

let print_diff a b =
  Printf.printf "== diff (second minus first) ==\n";
  delta_i "events" a.events b.events;
  delta_i "sends" a.send_count b.send_count;
  delta_i "delivers" a.deliver_count b.deliver_count;
  delta_i "forwarded" a.forwarded b.forwarded;
  delta_i "reordered" a.reordered b.reordered;
  delta_i "causal traces" a.traces b.traces;
  delta_i "critical path (hops)" a.cp.C.hops b.cp.C.hops;
  delta_i "critical path (sim time)"
    (a.cp.C.end_time - a.cp.C.start_time)
    (b.cp.C.end_time - b.cp.C.start_time);
  delta_i "max queue depth" a.queue.C.max_depth b.queue.C.max_depth;
  let tags =
    List.sort_uniq String.compare (List.map fst a.latency @ List.map fst b.latency)
  in
  List.iter
    (fun tag ->
      let p50 l =
        match List.assoc_opt tag l with Some d -> d.C.p50 | None -> 0
      in
      delta_i (Printf.sprintf "latency p50 [%s]" tag) (p50 a.latency) (p50 b.latency))
    tags;
  let phases =
    List.sort_uniq String.compare
      (List.map (fun (p : Telemetry.Profile.entry) -> p.Telemetry.Profile.name)
         (a.phases @ b.phases))
  in
  List.iter
    (fun name ->
      let alloc l =
        match
          List.find_opt
            (fun (p : Telemetry.Profile.entry) -> p.Telemetry.Profile.name = name)
            l
        with
        | Some p -> p.Telemetry.Profile.alloc_bytes
        | None -> 0
      in
      delta_i (Printf.sprintf "phase alloc [%s]" name) (alloc a.phases)
        (alloc b.phases))
    phases;
  if a.discipline <> b.discipline then
    Printf.printf "  note: traces ran under different schedulers (%s vs %s)\n"
      a.discipline b.discipline

(* ------------------------------------------------------------------ *)

let analyze file diff_file =
  let a = summarize (load file) in
  print_summary file a;
  match diff_file with
  | None -> ()
  | Some f2 ->
      let b = summarize (load f2) in
      print_summary f2 b;
      print_diff a b

let run_check file =
  let events = load file in
  match C.check events with
  | Ok () ->
      Printf.printf "%s: causality ok (%d events, %d traces)\n" file
        (List.length events) (C.trace_count events)
  | Error errs ->
      List.iter (fun e -> Printf.eprintf "%s: %s\n" file e) errs;
      Printf.eprintf "%s: causality check FAILED (%d violations)\n" file
        (List.length errs);
      exit 1

let export file out =
  let events = load file in
  match Telemetry.Export.write_file out (Telemetry.Export.perfetto events) with
  | () -> Printf.printf "%s: %d events -> %s\n" file (List.length events) out
  | exception Sys_error e ->
      Printf.eprintf "tracecat: %s\n" e;
      exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "analyze" :: file :: rest -> (
      match rest with
      | [] -> analyze file None
      | [ "--diff"; f2 ] -> analyze file (Some f2)
      | _ -> usage ())
  | [ _; "check"; file ] -> run_check file
  | _ :: "export" :: file :: rest -> (
      match rest with
      | [] -> export file (Filename.remove_extension file ^ ".trace.json")
      | [ "-o"; out ] -> export file out
      | _ -> usage ())
  | _ -> usage ()
