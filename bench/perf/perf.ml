(* perf.exe — the repository benchmark (see README.md in this directory).

     perf.exe bench --workload W --seed N --seconds S --trace 0|1
         one workload; prints a table, then one JSON result line. Untraced,
         it runs passes — each a fresh child process on its own input —
         until S seconds are used; traced, it runs one untraced and one
         traced pass in process, then the layer probes
     perf.exe run [--seed N] [--seconds S] [--json FILE] [W...]
         every workload (or the named ones) untraced, one after another
     perf.exe trace --trace-out FILE [--seed N] [W...]
         the same, traced, each workload in a fresh child process,
         appending every workload's spans to FILE
     perf.exe compare [--benchmark BENCHMARK.json] BASE.json... -- CHANGE.json...
         verdict per workload x end-to-end metric over `run --json` files
     perf.exe selftest [--benchmark BENCHMARK.json]
         the tiny-scale smoke and sync test that `dune runtest` runs

   Every command takes [--scale full|tiny] (default full). *)

open Workloads
module Json = Telemetry.Json

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf.exe: " ^ s);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* statistics                                                           *)

let sorted_floats l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  let a = sorted_floats l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)] (its
   default "exclusive" method), so a spread computed here matches one
   computed from the printed values. Needs at least two values. *)
let quartiles l =
  let a = sorted_floats l in
  let ld = Array.length a in
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(* Nearest-rank percentile of sorted int samples. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sorted_ints a =
  Array.sort Int.compare a;
  a

let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let s_of_ns ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------------ *)
(* one pass: set up and drive one input once                            *)

(* The input of pass [pass] of a run with [--seed seed]: distinct for every
   pair, and the workloads' base seeds for (0, 0). *)
let input_seed ~seed ~pass = (seed * 1_000_003) + (pass * 7919)

(* Fingerprints of input 0. At full scale dist-estimate is E15 (5,246,464
   messages, 325,280,768 bits). *)
let golden =
  let fp requests answered granted cost bits central_moves estimator_msgs epochs steps sim_time
      final_size =
    fingerprint
      {
        requests;
        answered;
        granted;
        cost;
        bits;
        central_moves;
        estimator_msgs;
        epochs;
        steps;
        misses = 0;
        sim_time;
        final_size;
      }
  in
  [
    (("central-deep", Full), fp 12488 12488 12279 29043028 0 29043028 0 0 0 0 36855);
    (("central-deep", Tiny), fp 584 584 384 215725 0 215725 0 0 0 0 1152);
    (("estimate-churn", Full), fp 262144 262144 262144 8367417 0 4438242 3929175 2 0 0 288788);
    (("estimate-churn", Tiny), fp 4096 4096 4096 99395 0 53675 45720 2 0 0 4528);
    ( ("dist-estimate", Full),
      fp 125000 125000 125000 5246464 325280768 0 937260 2 5496468 23853834 112356 );
    (("dist-estimate", Tiny), fp 2500 2500 2500 67978 3011538 0 18630 2 72982 310958 2226);
    (("dist-contend", Full), fp 32768 32768 32768 1002296 56128372 0 0 0 1052544 4022008 19634);
    (("dist-contend", Tiny), fp 2048 2048 2048 37128 1484622 0 0 0 54368 149104 656);
  ]

type drive = {
  setup_ns : int;
  drive_ns : int;
  counters : counters;
  errors : string list;
  lat : Lat.t;
  alloc_b : float;
  minor : int;
  major : int;
  top_heap_words : int;
}

let drive_once (w : Workloads.t) ~scale ~input sp =
  Gc.compact ();
  let lat = Lat.create (w.requests scale) in
  let t0 = Spans.now () in
  let p = w.setup scale ~seed:input sp lat in
  let t1 = Spans.now () in
  let g0 = Gc.quick_stat () and a0 = Spans.allocated_bytes () in
  p.drive ();
  let t2 = Spans.now () in
  let a1 = Spans.allocated_bytes () and g1 = Gc.quick_stat () in
  let counters = p.counters () in
  let fp = fingerprint counters in
  let errors =
    (match p.check () with Ok () -> [] | Error e -> [ e ])
    @
    match List.assoc_opt (w.name, scale) golden with
    | Some g when input = 0 && g <> fp -> [ Printf.sprintf "fingerprint %s, expected %s" fp g ]
    | _ -> []
  in
  {
    setup_ns = t1 - t0;
    drive_ns = t2 - t1;
    counters;
    errors;
    lat;
    alloc_b = a1 -. a0;
    minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
    top_heap_words = g1.Gc.top_heap_words;
  }

(* What an untraced pass reports to the parent run. [setup_s] is the pass's
   one set-up, the first work of a fresh process, so it includes the heap's
   growth. *)
type pass = {
  input : int;
  setup_s : float;
  drive_s : float;
  requests : int;
  answered : int;
  cost : int;
  p50_us : float;
  p999_us : float;
  samples : int;
  heap_mb : float;
  fp : string;
  errs : string list;
}

let pass_of_drive ~input d =
  let wall = sorted_ints (Lat.wall d.lat) in
  let us p = float_of_int (percentile wall p) /. 1e3 in
  {
    input;
    setup_s = s_of_ns d.setup_ns;
    drive_s = s_of_ns d.drive_ns;
    requests = d.counters.requests;
    answered = d.counters.answered;
    cost = d.counters.cost;
    p50_us = us 0.5;
    p999_us = us 0.999;
    samples = Array.length wall;
    heap_mb = float_of_int (d.top_heap_words * 8) /. 1e6;
    fp = fingerprint d.counters;
    errs = d.errors;
  }

let pass_to_json p =
  Json.Obj
    [
      ("input", Json.Int p.input);
      ("setup_s", Json.Float p.setup_s);
      ("drive_s", Json.Float p.drive_s);
      ("requests", Json.Int p.requests);
      ("answered", Json.Int p.answered);
      ("cost", Json.Int p.cost);
      ("p50_us", Json.Float p.p50_us);
      ("p999_us", Json.Float p.p999_us);
      ("samples", Json.Int p.samples);
      ("heap_mb", Json.Float p.heap_mb);
      ("fingerprint", Json.String p.fp);
      ("errors", Json.List (List.map (fun e -> Json.String e) p.errs));
    ]

let num = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> failwith "not a number"

let pass_of_json j =
  let f k = num (Json.member k j) and i k = Json.to_int (Json.member k j) in
  {
    input = i "input";
    setup_s = f "setup_s";
    drive_s = f "drive_s";
    requests = i "requests";
    answered = i "answered";
    cost = i "cost";
    p50_us = f "p50_us";
    p999_us = f "p999_us";
    samples = i "samples";
    heap_mb = f "heap_mb";
    fp = Json.to_str (Json.member "fingerprint" j);
    errs =
      (match Json.member "errors" j with
      | Json.List l -> List.map Json.to_str l
      | _ -> failwith "errors: not a list");
  }

(* ------------------------------------------------------------------ *)
(* results                                                              *)

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

let m name value unit_ = { name; value; unit_ }

(* The end-to-end metrics of a set of untraced passes: medians over the
   passes, each pass a different input in a fresh process. *)
let e2e_metrics passes =
  let med f = median (List.map f passes) in
  [
    m "setup_s" (med (fun p -> p.setup_s)) "s";
    m "requests_per_s" (med (fun p -> float_of_int p.requests /. p.drive_s)) "req/s";
    m "msgs_per_s" (med (fun p -> float_of_int p.cost /. p.drive_s)) "msg/s";
    m "request_p50_us" (med (fun p -> p.p50_us)) "us";
    m "request_p999_us" (med (fun p -> p.p999_us)) "us";
    m "peak_heap_mb" (med (fun p -> p.heap_mb)) "MB";
  ]

(* [lost] counts the requests of passes whose process died. With no pass
   left there is nothing to measure, and the metrics are empty. *)
let outcome_of_passes ~lost passes =
  let attempted = List.fold_left (fun acc p -> acc + p.requests) lost passes in
  let failed =
    List.fold_left
      (fun acc p -> acc + if p.errs = [] then p.requests - p.answered else p.requests)
      lost passes
  in
  let notes =
    List.map
      (fun p ->
        Printf.sprintf
          "  pass input=%d setup %.4f s drive %.4f s requests %d cost %d p50 %.2f us p99.9 \
           %.2f us (%d samples) heap %.2f MB"
          p.input p.setup_s p.drive_s p.requests p.cost p.p50_us p.p999_us p.samples p.heap_mb)
      passes
    @ List.concat_map (fun p -> List.map (fun e -> "  FAILED: " ^ e) p.errs) passes
    @ if lost > 0 then [ Printf.sprintf "  FAILED: %d requests lost with their pass" lost ] else []
  in
  let metrics = if passes = [] then [] else e2e_metrics passes in
  { correct = failed = 0; attempted; failed; metrics; notes }

(* The per-layer metrics: the span accounting of the traced drive [t], the
   GC counters of the untraced drive [u] of the same input, and the probes. *)
let layer_metrics (u : drive) (t : drive) sp probes =
  let c = t.counters in
  let on_net = c.steps > 0 in
  let frac ns = float_of_int ns /. float_of_int t.drive_ns in
  let mean_ns kind = fdiv (Spans.total_ns sp kind) (Spans.count sp kind) in
  let ticks = sorted_ints (Lat.ticks t.lat) in
  let step_self = Spans.step_self_ns sp in
  let spans_self = Spans.total_ns sp Spans.Next_op + Spans.total_ns sp Spans.Submit in
  [
    m "dtree.build_s" (s_of_ns (Spans.total_ns sp Spans.Build)) "s";
    m "ctrl.create_s" (s_of_ns (Spans.total_ns sp Spans.Create)) "s";
    m "trace.drive_s" (s_of_ns t.drive_ns) "s";
    m "workload.next_op_ns" (mean_ns Spans.Next_op) "ns";
    m "workload.avoid_miss_frac" (fdiv c.misses (c.misses + c.requests)) "frac";
    m "ctrl.submit_ns" (mean_ns Spans.Submit) "ns";
    m "ctrl.granted_frac" (fdiv c.granted c.requests) "frac";
    m "central.moves_per_request" (fdiv c.central_moves c.requests) "count";
    m "estimator.msgs_per_request" (fdiv c.estimator_msgs c.requests) "count";
    m "estimator.epochs" (float_of_int c.epochs) "count";
    m "net.steps" (float_of_int c.steps) "count";
    m "net.actions_frac" (if on_net then fdiv (c.steps - c.cost) c.steps else 0.0) "frac";
    m "net.msgs_per_request" (if on_net then fdiv c.cost c.requests else 0.0) "count";
    m "net.bits_per_msg" (fdiv c.bits c.cost) "bits";
    m "net.sim_ticks_p50" (float_of_int (percentile ticks 0.5)) "ticks";
    m "net.sim_ticks_p999" (float_of_int (percentile ticks 0.999)) "ticks";
    m "gc.alloc_b_per_request" (u.alloc_b /. float_of_int c.requests) "B";
    m "gc.alloc_b_per_msg" (u.alloc_b /. float_of_int (max 1 c.cost)) "B";
    m "gc.minor" (float_of_int u.minor) "count";
    m "gc.major" (float_of_int u.major) "count";
    m "trace.next_op_frac" (frac (Spans.total_ns sp Spans.Next_op)) "frac";
    m "trace.submit_frac" (frac (Spans.total_ns sp Spans.Submit)) "frac";
    m "trace.net_step_self_frac" (frac step_self) "frac";
    m "trace.cover_frac" (frac (spans_self + step_self)) "frac";
    m "trace.overhead_frac"
      (float_of_int (t.drive_ns - u.drive_ns) /. float_of_int u.drive_ns)
      "frac";
  ]
  @ List.map (fun (name, value, unit_) -> m name value unit_) (Probes.metrics probes)

(* The traced run, in this process: the untraced drive first (reference
   time and GC counters), then the traced drive of the same input, then the
   probes. Traced and untraced fingerprints must agree. *)
let run_traced (w : Workloads.t) ~scale ~seed ~trace_out =
  let input = input_seed ~seed ~pass:0 in
  let u = drive_once w ~scale ~input (Spans.create ~on:false ~capacity:0) in
  let sp = Spans.create ~on:true ~capacity:((3 * w.requests scale) + 8) in
  let t = drive_once w ~scale ~input sp in
  Option.iter
    (fun file ->
      Out_channel.with_open_gen [ Open_wronly; Open_creat; Open_append; Open_text ] 0o644 file
        (fun oc -> Spans.write_jsonl sp ~workload:w.name oc))
    trace_out;
  let probes = Probes.run ~scale in
  let fu = fingerprint u.counters and ft = fingerprint t.counters in
  let errors =
    u.errors @ t.errors
    @ if fu <> ft then [ Printf.sprintf "traced fingerprint %s, untraced %s" ft fu ] else []
  in
  let attempted = u.counters.requests + t.counters.requests in
  let failed =
    if errors <> [] then attempted
    else attempted - u.counters.answered - t.counters.answered
  in
  {
    correct = errors = [] && failed = 0;
    attempted;
    failed;
    metrics = layer_metrics u t sp probes;
    notes =
      Printf.sprintf "  fingerprint %s" fu
      :: Printf.sprintf "  untraced drive %.4f s, traced drive %.4f s, %d Net.step (self %.4f s)"
           (s_of_ns u.drive_ns) (s_of_ns t.drive_ns) t.counters.steps
           (s_of_ns (Spans.step_self_ns sp))
      :: List.map (fun e -> "  FAILED: " ^ e) errors;
  }

(* ------------------------------------------------------------------ *)
(* child processes                                                      *)

(* Run this executable with [args]; returns its exit status and stdout.
   Waits for the child before returning. *)
let spawn args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, out)

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | last :: rest -> (List.rev rest, last)
  | [] -> ([], "")

let scale_name = function Full -> "full" | Tiny -> "tiny"

(* The untraced run: passes in fresh child processes, each on its own input,
   while the next one still fits in [seconds]. A pass whose process dies
   (a raise in the library) loses all its requests and ends the run. *)
let run_untraced (w : Workloads.t) ~scale ~seed ~seconds =
  let started = Unix.gettimeofday () in
  let rec go pass acc =
    let input = input_seed ~seed ~pass in
    let status, out =
      spawn
        [
          "pass"; "--workload"; w.name; "--input"; string_of_int input; "--scale"; scale_name scale;
        ]
    in
    match (status, pass_of_json (Json.of_string (snd (last_line out)))) with
    | Unix.WEXITED 0, p ->
        let elapsed = Unix.gettimeofday () -. started in
        if elapsed *. float_of_int (pass + 2) /. float_of_int (pass + 1) <= seconds then
          go (pass + 1) (p :: acc)
        else outcome_of_passes ~lost:0 (List.rev (p :: acc))
    | _ | (exception Failure _) -> outcome_of_passes ~lost:(w.requests scale) (List.rev acc)
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* commands                                                             *)

type opts = {
  workloads : string list;
  seed : int;
  seconds : float;
  trace : bool;
  scale : scale;
  input : int;
  trace_out : string option;
  json : string option;
  benchmark : string;
}

let parse_opts args =
  let int_of what v =
    match int_of_string_opt v with Some n -> n | None -> die "bad %s %S" what v
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workloads = o.workloads @ [ v ] } rest
    | "--seed" :: v :: rest -> go { o with seed = int_of "--seed" v } rest
    | "--input" :: v :: rest -> go { o with input = int_of "--input" v } rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 && s <= 3600.0 -> go { o with seconds = s } rest
        | _ -> die "bad --seconds %S" v)
    | "--trace" :: "0" :: rest -> go { o with trace = false } rest
    | "--trace" :: "1" :: rest -> go { o with trace = true } rest
    | "--scale" :: v :: rest -> (
        match scale_of_string v with
        | Some s -> go { o with scale = s } rest
        | None -> die "bad --scale %S (want full or tiny)" v)
    | "--trace-out" :: v :: rest -> go { o with trace_out = Some v } rest
    | "--json" :: v :: rest -> go { o with json = Some v } rest
    | "--benchmark" :: v :: rest -> go { o with benchmark = v } rest
    | w :: rest when w <> "" && w.[0] <> '-' ->
        go { o with workloads = o.workloads @ [ w ] } rest
    | a :: _ -> die "bad or incomplete option %S" a
  in
  let o =
    go
      {
        workloads = [];
        seed = 0;
        seconds = 27.0;
        trace = false;
        scale = Full;
        input = 0;
        trace_out = None;
        json = None;
        benchmark = "BENCHMARK.json";
      }
      args
  in
  List.iter (fun w -> if Workloads.find w = None then die "unknown workload %S" w) o.workloads;
  o

let the_workload o =
  match o.workloads with
  | [ name ] -> Option.get (Workloads.find name)
  | _ -> die "give exactly one --workload"

let outcome_json o =
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
             o.metrics) );
    ]

(* Measure [w] as [o] asks, printing the notes and the metric table. *)
let measure o (w : Workloads.t) =
  Printf.printf "%s (seed %d, %s)\n%!" w.name o.seed (if o.trace then "traced" else "untraced");
  let out =
    if o.trace then run_traced w ~scale:o.scale ~seed:o.seed ~trace_out:o.trace_out
    else run_untraced w ~scale:o.scale ~seed:o.seed ~seconds:o.seconds
  in
  List.iter print_endline out.notes;
  List.iter (fun m -> Printf.printf "  %-34s %16.6g %s\n" m.name m.value m.unit_) out.metrics;
  Printf.printf "  correct=%b attempted=%d failed=%d\n%!" out.correct out.attempted out.failed;
  out

let cmd_bench o =
  let out = measure o (the_workload o) in
  print_endline (Json.to_string (outcome_json out));
  exit (if out.correct then 0 else 1)

(* One untraced pass, for [run_untraced]'s children. *)
let cmd_pass o =
  let w = the_workload o in
  let d = drive_once w ~scale:o.scale ~input:o.input (Spans.create ~on:false ~capacity:0) in
  print_endline (Json.to_string (pass_to_json (pass_of_drive ~input:o.input d)))

(* Each workload in turn. Untraced, in this process: its passes are fresh
   child processes already. Traced, in a [bench] child process of its own,
   so that every traced workload starts on a fresh heap. *)
let cmd_run o =
  let names =
    if o.workloads = [] then List.map (fun (w : Workloads.t) -> w.name) Workloads.all
    else o.workloads
  in
  Option.iter (fun f -> Out_channel.with_open_text f ignore) (if o.trace then o.trace_out else None);
  let traced name =
    let status, out =
      spawn
        ([ "bench"; "--workload"; name; "--seed"; string_of_int o.seed; "--trace"; "1";
           "--scale"; scale_name o.scale ]
        @ match o.trace_out with Some f -> [ "--trace-out"; f ] | None -> [])
    in
    let body, last = last_line out in
    List.iter print_endline body;
    (status = Unix.WEXITED 0, try Some (Json.of_string last) with Failure _ -> None)
  in
  let untraced name =
    let out = measure o (Option.get (Workloads.find name)) in
    (out.correct, Some (outcome_json out))
  in
  let results =
    List.map
      (fun name ->
        let ok, result = if o.trace then traced name else untraced name in
        if not ok then Printf.printf "  %s: FAILED\n" name;
        (name, ok, result))
      names
  in
  Option.iter
    (fun file ->
      let doc =
        Json.Obj
          [
            ("seed", Json.Int o.seed);
            ("seconds", Json.Float o.seconds);
            ("traced", Json.Bool o.trace);
            ( "workloads",
              Json.Obj
                (List.filter_map (fun (w, _, r) -> Option.map (fun r -> (w, r)) r) results) );
          ]
      in
      Out_channel.with_open_text file (fun oc -> output_string oc (Json.to_string doc ^ "\n")))
    o.json;
  exit (if List.for_all (fun (_, ok, _) -> ok) results then 0 else 1)

(* ------------------------------------------------------------------ *)
(* compare: the choosing-metrics rule, per workload x end-to-end metric  *)

type spec = { s_name : string; higher : bool; bound : float }

let load_benchmark file =
  let doc =
    try Json.of_string (In_channel.with_open_text file In_channel.input_all)
    with Sys_error e | Failure e -> die "%s: %s" file e
  in
  let list key =
    match Json.member key doc with Json.List l -> l | _ -> die "%s: no %s list" file key
  in
  let name j = Json.to_str (Json.member "name" j) in
  let e2e =
    List.map
      (fun j ->
        {
          s_name = name j;
          higher = Json.to_str (Json.member "better" j) = "higher";
          bound = num (Json.member "bound" j);
        })
      (list "end_to_end")
  in
  (e2e, List.map name (list "per_layer"), List.map name (list "workloads"))

let values files ~workload ~metric =
  List.filter_map
    (fun file ->
      let doc =
        try Json.of_string (In_channel.with_open_text file In_channel.input_all)
        with Sys_error e | Failure e -> die "%s: %s" file e
      in
      let path = [ "workloads"; workload; "metrics"; metric; "value" ] in
      let step j k = match j with Json.Obj _ -> Json.member k j | _ -> Json.Null in
      match List.fold_left step doc path with Json.Null -> None | v -> Some (num v))
    files

(* [base] and [change] are paired run by run in the order given, which
   should alternate the side that ran first. Improved: the change wins at
   least 9 pairs in 10 and its median beats the base's by more than the
   base's quartile spread. Worse: its median is worse by more than the
   bound and the spread. Unresolved: the spread is wider than the bound and
   not every change run beats every base run. *)
let verdict spec base change =
  let sign = if spec.higher then 1.0 else -1.0 in
  let better c b = sign *. (c -. b) > 0.0 in
  let q1, mb, q3 = quartiles base and _, mc, _ = quartiles change in
  let spread = q3 -. q1 in
  let rec pairs a b = match (a, b) with x :: a, y :: b -> (x, y) :: pairs a b | _ -> [] in
  let ps = pairs base change in
  let wins = List.length (List.filter (fun (b, c) -> better c b) ps) in
  let gain = sign *. (mc -. mb) in
  let tol = spec.bound *. Float.abs mb in
  let all_better = List.for_all (fun c -> List.for_all (better c) base) change in
  let v =
    if 10 * wins >= 9 * List.length ps && gain > spread then "improved"
    else if -.gain > Float.max tol spread then "worse"
    else if spread > tol && not all_better then "unresolved"
    else "no worse"
  in
  (v, wins, List.length ps)

let cmd_compare args =
  let benchmark, args =
    match args with "--benchmark" :: f :: rest -> (f, rest) | _ -> ("BENCHMARK.json", args)
  in
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | a :: rest -> split (a :: acc) rest
    | [] -> die "compare needs BASE.json... -- CHANGE.json..."
  in
  let base_files, change_files = split [] args in
  if List.length base_files < 2 || List.length change_files < 2 then
    die "compare needs at least two runs on each side";
  let e2e, _, workloads = load_benchmark benchmark in
  Printf.printf "%-15s %-16s %26s %26s %7s  %s\n" "workload" "metric" "base median [q1, q3]"
    "change median [q1, q3]" "wins" "verdict";
  let show l =
    let q1, md, q3 = quartiles l in
    Printf.sprintf "%.5g [%.5g, %.5g]" md q1 q3
  in
  let worse =
    List.concat_map
      (fun workload ->
        List.filter_map
          (fun spec ->
            let base = values base_files ~workload ~metric:spec.s_name
            and change = values change_files ~workload ~metric:spec.s_name in
            if List.length base < 2 || List.length change < 2 then None
            else begin
              let v, wins, n = verdict spec base change in
              Printf.printf "%-15s %-16s %26s %26s %3d/%-3d  %s\n" workload spec.s_name (show base)
                (show change) wins n v;
              if v = "worse" then Some (workload, spec.s_name) else None
            end)
          e2e)
      workloads
  in
  exit (if worse = [] then 0 else 1)

(* ------------------------------------------------------------------ *)
(* selftest                                                             *)

(* Tiny scale, in process: every workload's fingerprint is its golden one,
   traced and untraced fingerprints agree, a held-out input passes every
   invariant, dist-contend counts what Dist_harness counts, and the metric
   and workload names agree with BENCHMARK.json both ways. Silent unless
   something fails. *)
let cmd_selftest o =
  let e2e, per_layer, workload_names = load_benchmark o.benchmark in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let same_names what ours theirs =
    let missing = List.filter (fun n -> not (List.mem n ours)) theirs
    and extra = List.filter (fun n -> not (List.mem n theirs)) ours in
    if missing <> [] || extra <> [] then
      fail "%s: in BENCHMARK.json only [%s]; in perf.exe only [%s]" what
        (String.concat " " missing) (String.concat " " extra)
  in
  same_names "workloads" (List.map (fun (w : Workloads.t) -> w.name) Workloads.all) workload_names;
  let probes = Probes.run ~scale:Tiny in
  List.iter
    (fun (w : Workloads.t) ->
      let off () = Spans.create ~on:false ~capacity:0 in
      let u = drive_once w ~scale:Tiny ~input:0 (off ()) in
      let sp = Spans.create ~on:true ~capacity:16 in
      let t = drive_once w ~scale:Tiny ~input:0 sp in
      let held_out = drive_once w ~scale:Tiny ~input:(input_seed ~seed:4242 ~pass:3) (off ()) in
      List.iter (fail "%s: %s" w.name) (u.errors @ t.errors @ held_out.errors);
      if fingerprint u.counters <> fingerprint t.counters then
        fail "%s: traced fingerprint %s, untraced %s" w.name (fingerprint t.counters)
          (fingerprint u.counters);
      let passes = [ pass_of_drive ~input:0 u ] in
      same_names (w.name ^ " end_to_end")
        (List.map (fun m -> m.name) (e2e_metrics passes))
        (List.map (fun s -> s.s_name) e2e);
      same_names (w.name ^ " per_layer")
        (List.map (fun m -> m.name) (layer_metrics u t sp probes))
        per_layer;
      if w.name = "dist-contend" then begin
        let s =
          Controller.Dist_harness.run ~seed:0xD1CE ~concurrency:8
            ~scheduler:(Scheduler.Adversarial_lifo { window = 8 })
            ~shape:(Workload.Shape.Random 512) ~mix:Workload.Mix.churn ~m:(4 * 2048) ~w:1024
            ~requests:2048 ()
        in
        if s.messages <> u.counters.cost || s.sim_time <> u.counters.sim_time then
          fail "dist-contend: %d messages at time %d, Dist_harness %d at %d" u.counters.cost
            u.counters.sim_time s.messages s.sim_time
      end)
    Workloads.all;
  match !failures with
  | [] -> ()
  | l ->
      List.iter (fun s -> prerr_endline ("selftest: " ^ s)) (List.rev l);
      exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "bench" :: args -> cmd_bench (parse_opts args)
  | "pass" :: args -> cmd_pass (parse_opts args)
  | "run" :: args -> cmd_run { (parse_opts args) with trace = false }
  | "trace" :: args ->
      let o = parse_opts args in
      if o.trace_out = None then die "trace needs --trace-out FILE";
      cmd_run { o with trace = true }
  | "compare" :: args -> cmd_compare args
  | "selftest" :: args -> cmd_selftest (parse_opts args)
  | _ -> die "usage: perf.exe (bench|run|trace|compare|selftest) [options]; see README.md"
