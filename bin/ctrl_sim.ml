(* ctrl_sim: drive the dynamic-network controllers and estimators from the
   command line.

     dune exec bin/ctrl_sim.exe -- run --controller adaptive --shape random \
       --n0 256 --requests 2000 --mix churn --budget 1024 --waste 64
     dune exec bin/ctrl_sim.exe -- run --controller dist --seeds 8 -j 4
     dune exec bin/ctrl_sim.exe -- size-est --n0 200 --changes 1000 --beta 2.0
     dune exec bin/ctrl_sim.exe -- names --n0 200 --changes 1000
     dune exec bin/ctrl_sim.exe -- trace capture --out /tmp/x.trace --steps 500
     dune exec bin/ctrl_sim.exe -- trace run --in /tmp/x.trace --budget 300 *)

open Cmdliner
open Controller

(* ------------------------------------------------------------------ *)
(* shared argument parsing                                             *)

(* A named choice parses to its (name, value) pair: a bad name is a usage
   error that lists the choices, and the name stays at hand for printing. *)
let named choices = Arg.enum (List.map (fun (s, v) -> (s, (s, v))) choices)

let shape_of ~n = function
  | `Path -> Workload.Shape.Path n
  | `Star -> Workload.Shape.Star n
  | `Random -> Workload.Shape.Random n
  | `Balanced -> Workload.Shape.Balanced (2, n)
  | `Caterpillar -> Workload.Shape.Caterpillar n

(* A file named on the command line cannot be read or written, or holds
   unusable contents: print [ctrl_sim: FILE: reason] and exit 2. A
   [Sys_error] message already leads with the file. *)
let file_error fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "ctrl_sim: %s@." msg;
      2)
    fmt

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"enable debug logging")

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  if verbose then Logs.Src.set_level Controller.Central.log_src (Some Logs.Debug)

let shape_arg =
  let shapes =
    [
      ("path", `Path);
      ("star", `Star);
      ("random", `Random);
      ("balanced", `Balanced);
      ("caterpillar", `Caterpillar);
    ]
  in
  Arg.(value & opt (named shapes) ("random", `Random)
       & info [ "shape" ] ~doc:"path|star|random|balanced|caterpillar")

let mix_arg =
  let mixes =
    Workload.Mix.
      [ ("grow", grow_only); ("churn", churn); ("shrink", shrink_heavy); ("events", mixed_events) ]
  in
  Arg.(value & opt (named mixes) ("churn", Workload.Mix.churn)
       & info [ "mix" ] ~doc:"grow|churn|shrink|events")

let scheduler_conv =
  let parse s =
    match Scheduler.of_string s with Ok d -> Ok d | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf d -> Format.pp_print_string ppf (Scheduler.name d))

(* [--scheduler], else [Scheduler.default ()], which reads
   [SIMNET_SCHEDULER]. The variable is read once, here: a bad value is a
   usage error before anything runs, even for a controller that builds no
   network. *)
let scheduler_arg =
  let flag =
    Arg.(value & opt (some scheduler_conv) None
         & info [ "scheduler" ] ~docv:"NAME"
             ~doc:"message delivery discipline: fifo_link|random_delay|adversarial_lifo[:W]|bursty[:P] \
                   (default fifo_link, overridable via $(b,SIMNET_SCHEDULER))")
  in
  let resolve = function
    | Some _ as chosen -> Ok chosen
    | None -> (
        match Scheduler.default () with
        | d -> Ok (Some d)
        | exception Invalid_argument e -> Error (`Msg ("SIMNET_SCHEDULER: " ^ e)))
  in
  Term.(term_result ~usage:true (const resolve $ flag))

(* A count outside its range is a usage error that names the value, never
   an exception from deep inside a controller. *)
let int_from lo what =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= lo -> Ok k
    | Some _ | None -> Error (`Msg (Printf.sprintf "%S is not a %s integer" s what))
  in
  Arg.conv (parse, Format.pp_print_int)

let non_negative = int_from 0 "non-negative"
let positive = int_from 1 "positive"

let n0_arg = Arg.(value & opt positive 128 & info [ "n0" ] ~doc:"initial network size")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"random seed")
let budget_arg = Arg.(value & opt non_negative 512 & info [ "budget"; "m" ] ~doc:"permit budget M")
let waste_arg = Arg.(value & opt non_negative 64 & info [ "waste"; "w" ] ~doc:"waste bound W")

(* ------------------------------------------------------------------ *)
(* telemetry plumbing                                                  *)

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"write a Prometheus-style metrics dump to $(docv) at the end of the run")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"write the structured event trace (JSONL, one event per line) to $(docv)")

let perfetto_out_arg =
  Arg.(value & opt (some string) None
       & info [ "perfetto-out" ] ~docv:"FILE"
           ~doc:"write a Chrome/Perfetto trace_event JSON rendering of the run's \
                 event trace to $(docv) (load it at ui.perfetto.dev)")

let jobs_arg =
  Arg.(value & opt int 0
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"run independent seeds over $(docv) domains (0 = take \
                 $(b,DYNNET_JOBS), default 1); results are printed in seed \
                 order and are identical to a sequential run")

let seeds_arg =
  Arg.(value & opt positive 1
       & info [ "seeds" ] ~docv:"K"
           ~doc:"run the scenario for $(docv) consecutive seeds starting at \
                 --seed; with --trace-out the per-seed traces go to \
                 FILE.<seed>, with --metrics-out the per-seed registries are \
                 merged into one dump")

let effective_jobs j = if j <= 0 then Pool.default_jobs () else j

(* Build the sink for one task: a metrics registry always, plus a streaming
   JSONL channel when a trace was requested — [Sink.to_channel], so an
   arbitrarily long trace keeps O(1) heap instead of pinning every event
   until the end of the run. Events stay in memory only for a Perfetto
   export with no trace file to re-read; a metrics-only sink keeps none.
   [f sink] runs the task; the trace channel is flushed and closed
   afterwards, and the trace line is reported to [ppf]. *)
let with_sink ~metrics_out ~trace_out ?perfetto_out ppf f =
  match (metrics_out, trace_out, perfetto_out) with
  | None, None, None ->
      (* no sink at all: the instrumented layers keep their allocation-free
         no-telemetry fast path *)
      f None;
      None
  | _ ->
      let channel = Option.map (fun path -> (path, open_out path)) trace_out in
      let sink =
        match (channel, perfetto_out) with
        | Some (_, oc), _ -> Telemetry.Sink.to_channel oc
        | None, Some _ -> Telemetry.Sink.create ()
        | None, None -> Telemetry.Sink.create ~on_event:ignore ()
      in
      Fun.protect
        ~finally:(fun () ->
          Telemetry.Sink.flush sink;
          Option.iter (fun (_, oc) -> close_out oc) channel)
        (fun () -> f (Some sink));
      Option.iter
        (fun (path, _) ->
          Format.fprintf ppf "event trace      %s (%d events)@." path
            (Telemetry.Sink.event_count sink))
        channel;
      Option.iter
        (fun out ->
          (* streaming sinks don't pin events, so re-read the JSONL they
             wrote; memory sinks hand their events over directly *)
          let events =
            match channel with
            | Some (path, _) -> Telemetry.Sink.read_jsonl path
            | None -> Telemetry.Sink.events sink
          in
          Telemetry.Export.write_file out (Telemetry.Export.perfetto events);
          Format.fprintf ppf "perfetto trace   %s (%d events)@." out
            (List.length events))
        perfetto_out;
      Some (Telemetry.Sink.metrics sink)

(* Write the merged dump, if one was asked for; the command's exit code. *)
let dump_metrics metrics_out registries =
  match metrics_out with
  | None -> 0
  | Some path -> (
      let merged = Telemetry.Metrics.create () in
      List.iter (Option.iter (fun m -> Telemetry.Metrics.merge ~into:merged m)) registries;
      match Telemetry.Export.write_file path (Telemetry.Export.prometheus merged) with
      | () ->
          Format.printf "metrics dump     %s@." path;
          0
      | exception Sys_error msg -> file_error "%s" msg)

(* ------------------------------------------------------------------ *)
(* run: controllers                                                    *)

let run_centralized ppf request moves tree ~seed ~mix ~requests =
  let wl = Workload.make ~seed ~mix () in
  let granted = ref 0 and rejected = ref 0 in
  for _ = 1 to requests do
    match request (Workload.next_op wl tree) with
    | Types.Granted -> incr granted
    | Types.Rejected | Types.Exhausted -> incr rejected
  done;
  Format.fprintf ppf "granted          %s@." (Stats.pretty_int !granted);
  Format.fprintf ppf "rejected         %s@." (Stats.pretty_int !rejected);
  Format.fprintf ppf "move complexity  %s@." (Stats.pretty_int (moves ()));
  Format.fprintf ppf "final size       %s@." (Stats.pretty_int (Dtree.size tree))

(* One complete scenario for one seed: builds its own tree, controller,
   network and sink, so any number of these can run on [Pool.map]'s
   domains at once. *)
let run_one ppf ~kind ~shape ~mix ~n0 ~requests ~m ~w ~scheduler ~sink ~seed =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (shape_of ~n:n0 shape) in
  let u = n0 + requests in
  match kind with
  | `Central ->
      let c =
        Central.create ?telemetry:sink ~params:(Params.make ~m ~w:(max 1 w) ~u) ~tree ()
      in
      run_centralized ppf (Central.request c) (fun () -> Central.moves c) tree ~seed ~mix
        ~requests
  | `Iterated ->
      let c = Iterated.create ?telemetry:sink ~m ~w ~u ~tree () in
      run_centralized ppf (Iterated.request c) (fun () -> Iterated.moves c) tree ~seed
        ~mix ~requests
  | `Adaptive ->
      let c = Adaptive.create ?telemetry:sink ~m ~w ~tree () in
      run_centralized ppf (Adaptive.request c) (fun () -> Adaptive.moves c) tree ~seed
        ~mix ~requests
  | `Trivial ->
      let c = Baseline_trivial.create ~m ~tree in
      run_centralized ppf (Baseline_trivial.request c)
        (fun () -> Baseline_trivial.moves c)
        tree ~seed ~mix ~requests
  | `Aaps ->
      let c = Baseline_aaps.Iterated.create ~m ~w ~u ~tree () in
      run_centralized ppf
        (Baseline_aaps.Iterated.request c)
        (fun () -> Baseline_aaps.Iterated.moves c)
        tree ~seed ~mix ~requests
  | `Dist ->
      let stats =
        Dist_harness.run ~seed ?scheduler ?sink ~shape:(shape_of ~n:n0 shape) ~mix ~m
          ~w ~requests ()
      in
      Format.fprintf ppf "%a@." Dist_harness.pp_stats stats
  | `Dist_adaptive ->
      let net = Net.create ~seed:(seed + 1) ?scheduler ?sink ~tree () in
      let da = Dist_adaptive.create ~m ~w ~net () in
      let g, r, _ =
        Dist_harness.run_on ~seed ~net ~mix ~requests ~submit:(Dist_adaptive.submit da) ()
      in
      Format.fprintf ppf "granted %d rejected %d epochs %d messages %s (+%s overhead)@."
        g r
        (Dist_adaptive.epochs da)
        (Stats.pretty_int (Net.messages net))
        (Stats.pretty_int (Dist_adaptive.overhead_messages da))

let run_main verbose (kind_s, kind) (shape_s, shape) (mix_s, mix) n0 requests m w seed
    seeds jobs scheduler metrics_out trace_out perfetto_out =
  if kind_s = "aaps" && mix_s <> "grow" then begin
    (* the bin hierarchy is keyed by exact depths: leaf insertions only *)
    Format.eprintf "ctrl_sim: --controller aaps supports --mix grow only@.";
    Cmd.Exit.cli_error
  end
  else begin
    setup_logs verbose;
    Format.printf "controller=%s shape=%s mix=%s n0=%d requests=%d M=%d W=%d U=%d@.@."
      kind_s shape_s mix_s n0 requests m w (n0 + requests);
    (* Each seed is an independent simulation with its own tree, network and
       sink, rendered into its own buffer — so the seeds fan out over
       [Pool.map] and the combined output is identical to a sequential run. *)
    let run_seed sd =
      let buf = Buffer.create 512 in
      let ppf = Format.formatter_of_buffer buf in
      let per_seed =
        Option.map (fun p -> if seeds = 1 then p else Printf.sprintf "%s.%d" p sd)
      in
      let trace_out = per_seed trace_out in
      let perfetto_out = per_seed perfetto_out in
      let registry =
        with_sink ~metrics_out ~trace_out ?perfetto_out ppf (fun sink ->
            run_one ppf ~kind ~shape ~mix ~n0 ~requests ~m ~w ~scheduler ~sink
              ~seed:sd)
      in
      Format.pp_print_flush ppf ();
      (sd, Buffer.contents buf, registry)
    in
    match Pool.map ~jobs:(effective_jobs jobs) run_seed (List.init seeds (fun i -> seed + i)) with
    | exception Sys_error msg -> file_error "%s" msg
    | outcomes ->
        List.iter
          (fun (sd, text, _) ->
            if seeds > 1 then Format.printf "--- seed %d ---@." sd;
            Format.printf "%s" text)
          outcomes;
        dump_metrics metrics_out (List.map (fun (_, _, r) -> r) outcomes)
  end

let run_cmd =
  let kind =
    let kinds =
      [
        ("central", `Central);
        ("iterated", `Iterated);
        ("adaptive", `Adaptive);
        ("trivial", `Trivial);
        ("aaps", `Aaps);
        ("dist", `Dist);
        ("dist-adaptive", `Dist_adaptive);
      ]
    in
    Arg.(value & opt (named kinds) ("adaptive", `Adaptive)
         & info [ "controller" ]
             ~doc:"central|iterated|adaptive|trivial|aaps|dist|dist-adaptive")
  in
  let requests =
    Arg.(value & opt non_negative 1000 & info [ "requests" ] ~doc:"number of requests")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"run an (M,W)-controller on a generated scenario")
    Term.(const run_main $ verbose_arg $ kind $ shape_arg $ mix_arg $ n0_arg $ requests
          $ budget_arg $ waste_arg $ seed_arg $ seeds_arg $ jobs_arg $ scheduler_arg
          $ metrics_out_arg $ trace_out_arg $ perfetto_out_arg)

(* ------------------------------------------------------------------ *)
(* size-est and names: the Section 5 protocols                         *)

let drive_estimator ~seed ~mix ~changes ~net ~submit =
  Dist_harness.drive ~concurrency:4 ~net ~requests:changes ~submit ~on_answer:ignore
    (Workload.make ~seed:(seed + 2) ~mix ());
  Net.run net

(* Run one protocol on its sink, then dump its metrics; the command's exit
   code. *)
let run_protocol ~metrics_out ~trace_out ?perfetto_out f =
  match with_sink ~metrics_out ~trace_out ?perfetto_out Format.std_formatter f with
  | exception Sys_error msg -> file_error "%s" msg
  | registry -> dump_metrics metrics_out [ registry ]

let size_est_main (_, shape) (_, mix) n0 changes beta seed scheduler metrics_out trace_out
    perfetto_out =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (shape_of ~n:n0 shape) in
  run_protocol ~metrics_out ~trace_out ?perfetto_out (fun sink ->
      let net = Net.create ~seed:(seed + 1) ?scheduler ?sink ~tree () in
      let se = Estimator.Size_estimation.create ~beta ~net () in
      drive_estimator ~seed ~mix ~changes ~net ~submit:(Estimator.Size_estimation.submit se);
      Format.printf
        "size estimation: %d changes, %d epochs, estimate %d vs true %d, %s messages (+%s overhead)@."
        (Estimator.Size_estimation.changes se)
        (Estimator.Size_estimation.epochs se)
        (Estimator.Size_estimation.estimate se (Dtree.root tree))
        (Dtree.size tree)
        (Stats.pretty_int (Net.messages net))
        (Stats.pretty_int (Estimator.Size_estimation.overhead_messages se)))

let changes_arg =
  Arg.(value & opt non_negative 500 & info [ "changes" ] ~doc:"topological changes")

let size_est_cmd =
  let beta =
    let parse s =
      match float_of_string_opt s with
      | Some b when Float.is_finite b && b > 1.0 -> Ok b
      | Some _ | None -> Error (`Msg (Printf.sprintf "%S is not a finite number above 1" s))
    in
    Arg.(value & opt (conv (parse, Format.pp_print_float)) 2.0
         & info [ "beta" ] ~doc:"approximation factor")
  in
  Cmd.v
    (Cmd.info "size-est" ~doc:"run the Theorem 5.1 size-estimation protocol")
    Term.(const size_est_main $ shape_arg $ mix_arg $ n0_arg $ changes_arg $ beta $ seed_arg
          $ scheduler_arg $ metrics_out_arg $ trace_out_arg $ perfetto_out_arg)

let names_main (_, shape) (_, mix) n0 changes seed scheduler metrics_out trace_out
    perfetto_out =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (shape_of ~n:n0 shape) in
  run_protocol ~metrics_out ~trace_out ?perfetto_out (fun sink ->
      let net = Net.create ~seed:(seed + 1) ?scheduler ?sink ~tree () in
      let na = Estimator.Name_assignment.create ~net () in
      drive_estimator ~seed ~mix ~changes ~net ~submit:(Estimator.Name_assignment.submit na);
      let ids = Estimator.Name_assignment.ids na in
      let max_id = List.fold_left (fun acc (_, i) -> max acc i) 0 ids in
      Format.printf
        "name assignment: %d nodes named in [1, %d] (max ever ratio %.2f <= 4), %d epochs, %s messages (+%s overhead)@."
        (List.length ids) max_id
        (Estimator.Name_assignment.max_id_ever_ratio na)
        (Estimator.Name_assignment.epochs na)
        (Stats.pretty_int (Net.messages net))
        (Stats.pretty_int (Estimator.Name_assignment.overhead_messages na)))

let names_cmd =
  Cmd.v
    (Cmd.info "names" ~doc:"run the Theorem 5.2 name-assignment protocol")
    Term.(const names_main $ shape_arg $ mix_arg $ n0_arg $ changes_arg $ seed_arg
          $ scheduler_arg $ metrics_out_arg $ trace_out_arg $ perfetto_out_arg)

(* ------------------------------------------------------------------ *)
(* trace: capture and replay scenarios                                 *)

let trace_capture_main (shape_s, shape) (_, mix) n0 steps seed out =
  let t = Workload.Trace.capture ~seed ~shape:(shape_of ~n:n0 shape) ~mix ~steps () in
  match Workload.Trace.save t out with
  | exception Sys_error msg -> file_error "%s" msg
  | () ->
      Format.printf "captured %d ops over %s into %s@." steps shape_s out;
      0

let trace_capture_cmd =
  let steps = Arg.(value & opt non_negative 500 & info [ "steps" ] ~doc:"ops to capture") in
  let out = Arg.(required & opt (some string) None & info [ "out" ] ~doc:"output file") in
  Cmd.v
    (Cmd.info "capture" ~doc:"record a scenario trace")
    Term.(const trace_capture_main $ shape_arg $ mix_arg $ n0_arg $ steps $ seed_arg $ out)

let trace_run_main input m w =
  let exception Invalid_op of int * string in
  match Workload.Trace.load input with
  | exception Sys_error msg -> file_error "%s" msg
  | exception Failure msg -> file_error "%s: %s" input msg
  | t -> (
      let ctrl_ref = ref None in
      let granted = ref 0 and rejected = ref 0 in
      let replay () =
        Workload.Trace.replay t ~f:(fun tree op ->
            let ctrl =
              match !ctrl_ref with
              | Some c -> c
              | None ->
                  let c = Adaptive.create ~m ~w ~tree () in
                  ctrl_ref := Some c;
                  c
            in
            match Adaptive.request ctrl op with
            | Types.Granted -> incr granted
            | Types.Rejected | Types.Exhausted -> incr rejected
            | exception Invalid_argument msg ->
                raise (Invalid_op (1 + !granted + !rejected, msg)))
      in
      match replay () with
      | exception Invalid_op (i, msg) -> file_error "%s: op %d: %s" input i msg
      | final ->
          (match !ctrl_ref with
          | Some c ->
              Format.printf
                "replayed %d ops: granted %d, rejected %d, moves %s, final size %d@."
                (List.length t.Workload.Trace.ops)
                !granted !rejected
                (Stats.pretty_int (Adaptive.moves c))
                (Dtree.size final)
          | None -> Format.printf "empty trace@.");
          0)

let trace_run_cmd =
  let input = Arg.(required & opt (some string) None & info [ "in" ] ~doc:"trace file") in
  Cmd.v
    (Cmd.info "run" ~doc:"replay a trace against the adaptive controller")
    Term.(const trace_run_main $ input $ budget_arg $ waste_arg)

let trace_cmd =
  Cmd.group (Cmd.info "trace" ~doc:"record and replay scenario traces")
    [ trace_capture_cmd; trace_run_cmd ]

(* ------------------------------------------------------------------ *)

let () =
  let doc = "dynamic-network (M,W)-controllers and estimators" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "ctrl_sim" ~doc)
          [ run_cmd; size_est_cmd; names_cmd; trace_cmd ]))
