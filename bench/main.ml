(* Benchmark harness: experiments E1-E15 (one per quantitative claim of the
   paper; see DESIGN.md and EXPERIMENTS.md) plus Bechamel micro-benchmarks
   of the hot operations.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- e3 e5   # selected experiments
     dune exec bench/main.exe -- micro   # micro-benchmarks only
     dune exec bench/main.exe -- -j 4 e1 e3
                                         # fan table rows out over 4 domains
     dune exec bench/main.exe -- --json BENCH_e.json e1 e3
                                         # also write per-experiment tallies
     dune exec bench/main.exe -- --json out.json --compare BENCH_BASELINE.json
                                         # gate against the committed baseline
     dune exec bench/main.exe -- --scheduler adversarial_lifo e5
                                         # pick the delivery discipline *)

open Bechamel
open Toolkit

let micro_tests () =
  let open Controller in
  let path_tree n =
    let rng = Rng.create ~seed:7 in
    Workload.Shape.build rng (Workload.Shape.Path n)
  in
  let t_dtree =
    Test.make ~name:"dtree: add+remove leaf"
      (Staged.stage
         (let tree = Dtree.create () in
          fun () ->
            let v = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
            Dtree.remove_leaf tree v))
  in
  let t_ancestor =
    Test.make ~name:"dtree: ancestor walk (depth 512)"
      (Staged.stage
         (let tree = path_tree 513 in
          let leaf = Dtree.any_leaf tree in
          fun () -> ignore (Dtree.ancestor_at tree leaf 512)))
  in
  let t_rng =
    Test.make ~name:"rng: bounded int"
      (Staged.stage
         (let rng = Rng.create ~seed:1 in
          fun () -> ignore (Rng.int rng 1_000_000)))
  in
  let t_queue =
    Test.make ~name:"event queue: add+pop"
      (Staged.stage
         (let q = Event_queue.create ~dummy:() in
          let i = ref 0 in
          fun () ->
            incr i;
            Event_queue.add q ~time:!i ();
            ignore (Event_queue.pop q)))
  in
  let t_split =
    Test.make ~name:"package: split level 10"
      (Staged.stage
         (let alloc = Package.allocator () in
          let params = Params.make ~m:(1 lsl 14) ~w:4096 ~u:4096 in
          fun () ->
            let p = Package.create alloc ~params ~level:10 in
            ignore (Package.split alloc p)))
  in
  let t_grant =
    Test.make ~name:"controller: request (static hit)"
      (Staged.stage
         (let tree = path_tree 256 in
          let params = Params.make ~m:10_000_000 ~w:(8 * 512) ~u:512 in
          let c = Central.create ~params ~tree () in
          let leaf = Dtree.any_leaf tree in
          fun () -> ignore (Central.request c (Workload.Non_topological leaf))))
  in
  [ t_dtree; t_ancestor; t_rng; t_queue; t_split; t_grant ]

let run_micro () =
  Format.printf "@.%s@.micro-benchmarks (Bechamel, monotonic clock)@.%s@."
    (String.make 78 '-') (String.make 78 '-');
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Format.printf "%-40s %12.1f ns/run@." name est
          | _ -> Format.printf "%-40s (no estimate)@." name)
        results)
    (micro_tests ())

(* ------------------------------------------------------------------ *)
(* per-experiment measurements and the perf-regression gate            *)

type outcome = {
  name : string;
  tally : Experiments.Results.tally;
  wall_s : float;
  peak_heap_words : int;
  profile : Telemetry.Profile.t;
}

(* The per-phase GC columns ride along in the JSON as a "gc_phases" object;
   compare_baseline only reads the fields it knows, so baselines without
   them still gate and new files against old baselines still pass. *)
let outcome_json scheduler o =
  let open Telemetry.Json in
  ( o.name,
    Obj
      [
        ("messages", Int o.tally.Experiments.Results.messages);
        ("moves", Int o.tally.Experiments.Results.moves);
        ("bits", Int o.tally.Experiments.Results.bits);
        ("rows", Int o.tally.Experiments.Results.rows);
        ("alloc_bytes", Int o.tally.Experiments.Results.alloc_bytes);
        ("peak_heap_words", Int o.peak_heap_words);
        ("scheduler", String scheduler);
        ("wall_s", Float o.wall_s);
        ( "msgs_per_s",
          Float
            (if o.wall_s > 0.0 then
               float_of_int o.tally.Experiments.Results.messages /. o.wall_s
             else 0.0) );
        ("gc_phases", Telemetry.Profile.to_json o.profile);
      ] )

let read_file path = In_channel.with_open_text path In_channel.input_all

(* Compare the run's outcomes against a committed baseline. The simulation
   counters (messages/moves/bits/rows) are deterministic given the seeds
   baked into the experiments, so ANY drift is a failure; wall clock and
   allocation are machine-dependent, so they only fail beyond a ratio
   (plus a small absolute slack to de-noise sub-second rows). Peak heap is
   reported in the JSON but not gated: in a multi-domain run it depends on
   scheduling. Exits nonzero on the first kind of violation. *)
let compare_baseline ~scheduler ~wall_tol ~alloc_tol baseline_path outcomes =
  let open Telemetry.Json in
  let baseline = of_string (read_file baseline_path) in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Format.printf ("FAIL " ^^ fmt ^^ "@.")
  in
  List.iter
    (fun o ->
      match member o.name baseline with
      | Null -> Format.printf "note: %s has no baseline entry, skipped@." o.name
      | entry ->
          let base_scheduler = to_str (member "scheduler" entry) in
          if base_scheduler <> scheduler then
            fail "%s: baseline recorded under scheduler %s, this run used %s"
              o.name base_scheduler scheduler
          else begin
            let exact field current =
              let b = to_int (member field entry) in
              if b <> current then
                fail "%s: %s drifted from baseline %d to %d (deterministic counter)"
                  o.name field b current
            in
            exact "messages" o.tally.Experiments.Results.messages;
            exact "moves" o.tally.Experiments.Results.moves;
            exact "bits" o.tally.Experiments.Results.bits;
            exact "rows" o.tally.Experiments.Results.rows;
            let base_wall =
              match member "wall_s" entry with
              | Float f -> f
              | Int i -> float_of_int i
              | _ -> failwith "baseline wall_s: not a number"
            in
            if o.wall_s > (base_wall *. wall_tol) +. 0.25 then
              fail "%s: wall %.3fs regressed past %.1fx baseline %.3fs" o.name
                o.wall_s wall_tol base_wall;
            let base_alloc = to_int (member "alloc_bytes" entry) in
            let allowed =
              int_of_float (float_of_int base_alloc *. alloc_tol) + (1 lsl 20)
            in
            if o.tally.Experiments.Results.alloc_bytes > allowed then
              fail "%s: allocation %d bytes regressed past %.2fx baseline %d"
                o.name o.tally.Experiments.Results.alloc_bytes alloc_tol
                base_alloc
          end)
    outcomes;
  if !failures > 0 then begin
    Format.printf "perf gate: %d failure(s) against %s@." !failures baseline_path;
    exit 1
  end
  else Format.printf "perf gate: ok against %s@." baseline_path

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* strip "FLAG value" pairs, in any position *)
  let strip_valued flag args =
    let rec go acc = function
      | f :: v :: rest when f = flag -> (Some v, List.rev_append acc rest)
      | a :: rest -> go (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    go [] args
  in
  let json_file, args = strip_valued "--json" args in
  let compare_file, args = strip_valued "--compare" args in
  let trace_file, args = strip_valued "--trace-out" args in
  (* -e NAME, repeatable: an explicit experiment selector (equivalent to the
     bare positional form, for callers that prefer flagged arguments) *)
  let selected, args =
    let rec go acc args =
      match strip_valued "-e" args with
      | None, args -> (List.rev acc, args)
      | Some name, args -> go (name :: acc) args
    in
    go [] args
  in
  let wall_tol, args = strip_valued "--wall-tolerance" args in
  let alloc_tol, args = strip_valued "--alloc-tolerance" args in
  let jobs, args =
    let j1, args = strip_valued "-j" args in
    let j2, args = strip_valued "--jobs" args in
    (( match (if j1 = None then j2 else j1) with
     | None -> Pool.default_jobs ()
     | Some v -> (
         match int_of_string_opt v with
         | Some n when n >= 1 -> n
         | _ ->
             Format.printf "bad -j value %S (want a positive integer)@." v;
             exit 2) ),
      args)
  in
  let float_opt ~default = function
    | None -> default
    | Some v -> (
        match float_of_string_opt v with
        | Some f when f > 0.0 -> f
        | _ ->
            Format.printf "bad tolerance %S (want a positive number)@." v;
            exit 2)
  in
  let wall_tol = float_opt ~default:5.0 wall_tol in
  let alloc_tol = float_opt ~default:1.5 alloc_tol in
  let scheduler, args =
    let s, args = strip_valued "--scheduler" args in
    ( ( match s with
      | None -> None
      | Some name -> (
          match Scheduler.of_string name with
          | Ok d -> Some d
          | Error e ->
              Format.printf "%s@." e;
              exit 2) ),
      args )
  in
  let results = ref [] in
  let trace_events = ref [] in
  let trace_sink () =
    (* one memory sink per experiment; each sink mints span ids from a
       disjoint block so the concatenated trace stays collision-free *)
    match trace_file with
    | None -> None
    | Some _ ->
        Some (Telemetry.Sink.create ~next_id:(List.length !results * (1 lsl 48)) ())
  in
  let args = args @ selected in
  let wanted = if args = [] then List.map fst Experiments.all @ [ "micro" ] else args in
  List.iter
    (fun name ->
      if name = "micro" then run_micro ()
      else
        match List.assoc_opt name Experiments.all with
        | Some f ->
            let sink = trace_sink () in
            let clock = Unix.gettimeofday in
            let profile = Telemetry.Profile.create ~clock () in
            let ctx = Experiments.make_ctx ?scheduler ~jobs ?sink ~profile ~clock () in
            let t0 = Unix.gettimeofday () in
            Telemetry.Profile.run profile ~name (fun () -> f ctx);
            let wall_s = Unix.gettimeofday () -. t0 in
            let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
            (match sink with
            | None -> ()
            | Some s ->
                Telemetry.Profile.emit profile s ~time:0;
                trace_events := Telemetry.Sink.events s :: !trace_events);
            results :=
              { name; tally = ctx.Experiments.tally; wall_s; peak_heap_words; profile }
              :: !results
        | None -> Format.printf "unknown experiment %S (have: e1..e15, micro)@." name)
    wanted;
  let outcomes = List.rev !results in
  (match trace_file with
  | None -> ()
  | Some path ->
      let all = Telemetry.Sink.create () in
      List.iter
        (fun events -> List.iter (Telemetry.Sink.record all) events)
        (List.rev !trace_events);
      Telemetry.Sink.write_jsonl all path;
      Format.printf "trace (%d events) -> %s@." (Telemetry.Sink.event_count all)
        path);
  let discipline =
    Scheduler.name
      (Option.value ~default:(Scheduler.default ()) scheduler)
  in
  (match json_file with
  | None -> ()
  | Some path ->
      let open Telemetry.Json in
      Telemetry.Export.write_file path
        (to_string (Obj (List.map (outcome_json discipline) outcomes)) ^ "\n");
      Format.printf "json results -> %s@." path);
  (match compare_file with
  | None -> ()
  | Some path ->
      compare_baseline ~scheduler:discipline ~wall_tol ~alloc_tol path outcomes);
  Format.printf "@."
