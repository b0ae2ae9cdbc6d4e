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
  (* phi = max(W/(2U), 1) = 4: three calls in four are static hits at the
     leaf and the fourth climbs (66-132 moves once the first climb to the
     root has placed packages) *)
  let t_grant =
    Test.make ~name:"controller: request (phi=4, one climb in four)"
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

(* One experiment's committed figures. *)
type baseline_entry = {
  b_scheduler : string;
  b_counters : (string * int) list;  (* the deterministic ones, by field *)
  b_wall_s : float;
  b_alloc : int;
}

let counter_fields = [ "messages"; "moves"; "bits"; "rows" ]

(* The baseline is an outside input: read and check all of it before any
   experiment runs, so that a bad file exits 2 at once with
   [bench: FILE: reason]. *)
let read_baseline path =
  let bad fmt =
    Format.kasprintf
      (fun msg ->
        Format.eprintf "bench: %s: %s@." path msg;
        exit 2)
      fmt
  in
  let open Telemetry.Json in
  let entry (name, e) =
    let field f =
      match e with
      | Obj fields -> Option.value ~default:Null (List.assoc_opt f fields)
      | _ -> bad "%s: not an object" name
    in
    let int f = match field f with Int i -> i | _ -> bad "%s: %s is not an integer" name f in
    ( name,
      {
        b_scheduler =
          (match field "scheduler" with
          | String s -> s
          | _ -> bad "%s: scheduler is not a string" name);
        b_counters = List.map (fun f -> (f, int f)) counter_fields;
        b_wall_s =
          (match field "wall_s" with
          | Float f -> f
          | Int i -> float_of_int i
          | _ -> bad "%s: wall_s is not a number" name);
        b_alloc = int "alloc_bytes";
      } )
  in
  match of_string (read_file path) with
  | Obj entries -> List.map entry entries
  | _ -> bad "not a JSON object"
  | exception Sys_error msg ->
      Format.eprintf "bench: %s@." msg;
      exit 2
  | exception Failure msg -> bad "%s" msg

(* Compare the run's outcomes against a committed baseline. The simulation
   counters (messages/moves/bits/rows) are deterministic given the seeds
   baked into the experiments, so ANY drift is a failure; wall clock and
   allocation are machine-dependent, so they only fail beyond a ratio
   (plus a small absolute slack to de-noise sub-second rows). Peak heap is
   neither reported nor gated: in a multi-domain run it depends on
   scheduling. Exits nonzero on the first kind of violation. *)
let compare_baseline ~scheduler ~wall_tol ~alloc_tol (baseline_path, baseline) outcomes =
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Format.printf ("FAIL " ^^ fmt ^^ "@.")
  in
  List.iter
    (fun o ->
      match List.assoc_opt o.name baseline with
      | None -> Format.printf "note: %s has no baseline entry, skipped@." o.name
      | Some b ->
          if b.b_scheduler <> scheduler then
            fail "%s: baseline recorded under scheduler %s, this run used %s"
              o.name b.b_scheduler scheduler
          else begin
            let t = o.tally in
            List.iter2
              (fun (field, base) current ->
                if base <> current then
                  fail "%s: %s drifted from baseline %d to %d (deterministic counter)"
                    o.name field base current)
              b.b_counters
              Experiments.Results.[ t.messages; t.moves; t.bits; t.rows ];
            if o.wall_s > (b.b_wall_s *. wall_tol) +. 0.25 then
              fail "%s: wall %.3fs regressed past %.1fx baseline %.3fs" o.name
                o.wall_s wall_tol b.b_wall_s;
            let allowed =
              int_of_float (float_of_int b.b_alloc *. alloc_tol) + (1 lsl 20)
            in
            if t.Experiments.Results.alloc_bytes > allowed then
              fail "%s: allocation %d bytes regressed past %.2fx baseline %d"
                o.name t.Experiments.Results.alloc_bytes alloc_tol b.b_alloc
          end)
    outcomes;
  if !failures > 0 then begin
    Format.printf "perf gate: %d failure(s) against %s@." !failures baseline_path;
    exit 1
  end
  else Format.printf "perf gate: ok against %s@." baseline_path

(* ------------------------------------------------------------------ *)

(* Bad command-line input: one [bench: ...] line on stderr and exit 2,
   before any experiment runs. *)
let usage_error fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "bench: %s@." msg;
      exit 2)
    fmt

let () =
  let json_file = ref None and baseline = ref None and trace_file = ref None in
  let wall_tol = ref None and alloc_tol = ref None and jobs = ref None in
  let scheduler = ref None and selected = ref [] and positional = ref [] in
  (* "FLAG value" pairs, in any position; -e NAME is repeatable, an explicit
     experiment selector equivalent to the bare positional form *)
  let valued =
    let set r v = r := Some v in
    [
      ("--json", set json_file);
      ("--compare", set baseline);
      ("--trace-out", set trace_file);
      ("-e", fun v -> selected := v :: !selected);
      ("--wall-tolerance", set wall_tol);
      ("--alloc-tolerance", set alloc_tol);
      ("-j", set jobs);
      ("--jobs", set jobs);
      ("--scheduler", set scheduler);
    ]
  in
  let rec parse = function
    | [] -> ()
    | arg :: rest -> (
        match (List.assoc_opt arg valued, rest) with
        | Some set, v :: rest ->
            set v;
            parse rest
        | Some _, [] -> usage_error "%s needs a value" arg
        | None, _ ->
            positional := arg :: !positional;
            parse rest)
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* each name resolved to its experiment, [None] for the micro-benchmarks *)
  let wanted =
    match List.rev_append !positional (List.rev !selected) with
    | [] -> List.map (fun (name, f) -> (name, Some f)) Experiments.all @ [ ("micro", None) ]
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt name Experiments.all with
            | Some f -> (name, Some f)
            | None when name = "micro" -> (name, None)
            | None -> usage_error "unknown experiment %S (have: e1..e15, micro)" name)
          names
  in
  let jobs =
    match !jobs with
    | None -> Pool.default_jobs ()
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> n
        | _ -> usage_error "bad -j value %S (want a positive integer)" v)
  in
  let float_opt ~default = function
    | None -> default
    | Some v -> (
        match float_of_string_opt v with
        | Some f when f > 0.0 -> f
        | _ -> usage_error "bad tolerance %S (want a positive number)" v)
  in
  let wall_tol = float_opt ~default:5.0 !wall_tol in
  let alloc_tol = float_opt ~default:1.5 !alloc_tol in
  let scheduler =
    match !scheduler with
    | Some name -> (
        match Scheduler.of_string name with
        | Ok d -> d
        | Error e -> usage_error "--scheduler: %s" e)
    | None -> (
        match Scheduler.default () with
        | d -> d
        | exception Invalid_argument e -> usage_error "SIMNET_SCHEDULER: %s" e)
  in
  (* each output must be creatable before any experiment runs; the trace
     file stays open for the experiments to stream into *)
  let create path =
    match open_out path with oc -> oc | exception Sys_error msg -> usage_error "%s" msg
  in
  Option.iter (fun path -> close_out (create path)) !json_file;
  let trace = Option.map (fun path -> (path, create path)) !trace_file in
  let json_file = !json_file in
  let baseline = Option.map (fun p -> (p, read_baseline p)) !baseline in
  let results = ref [] in
  let trace_count = ref 0 in
  List.iter
    (fun (name, experiment) ->
      match experiment with
      | None -> run_micro ()
      | Some f ->
          (* one streaming sink per experiment, minting span ids from a
             disjoint block so the concatenated trace stays collision-free *)
          let sink =
            Option.map
              (fun (_, oc) ->
                Telemetry.Sink.to_channel ~next_id:(List.length !results * (1 lsl 48)) oc)
              trace
          in
          let clock = Unix.gettimeofday in
          let profile = Telemetry.Profile.create ~clock () in
          let ctx = Experiments.make_ctx ~scheduler ~jobs ?sink ~profile ~clock () in
          let t0 = Unix.gettimeofday () in
          Telemetry.Profile.run profile ~name (fun () -> f ctx);
          let wall_s = Unix.gettimeofday () -. t0 in
          Option.iter
            (fun s ->
              Telemetry.Profile.emit profile s ~time:0;
              Telemetry.Sink.flush s;
              trace_count := !trace_count + Telemetry.Sink.event_count s)
            sink;
          results :=
            { name; tally = ctx.Experiments.tally; wall_s; profile } :: !results)
    wanted;
  let outcomes = List.rev !results in
  Option.iter
    (fun (path, oc) ->
      close_out oc;
      Format.printf "trace (%d events) -> %s@." !trace_count path)
    trace;
  let discipline = Scheduler.name scheduler in
  (match json_file with
  | None -> ()
  | Some path ->
      let open Telemetry.Json in
      Telemetry.Export.write_file path
        (to_string (Obj (List.map (outcome_json discipline) outcomes)) ^ "\n");
      Format.printf "json results -> %s@." path);
  Option.iter (fun b -> compare_baseline ~scheduler:discipline ~wall_tol ~alloc_tol b outcomes)
    baseline;
  Format.printf "@."
