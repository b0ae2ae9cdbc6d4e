(* The parallel map and the determinism contract of everything built on it:
   Pool.map must preserve order and results at any parallelism, propagate
   the lowest-indexed exception, and the parallel consumers (bench
   experiment tables, Explore.sweep) must produce byte-identical output
   at -j 4 and -j 1. *)

(* ------------------------------------------------------------------ *)
(* Pool.map semantics                                                  *)

let test_map_order_and_results () =
  let items = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  let expected = List.map f items in
  Alcotest.(check (list int)) "jobs=1 equals List.map" expected (Pool.map ~jobs:1 f items);
  Alcotest.(check (list int)) "jobs=4 equals List.map" expected (Pool.map ~jobs:4 f items);
  Alcotest.(check (list int)) "jobs > items" expected (Pool.map ~jobs:16 f items);
  Alcotest.(check (list int)) "empty input" [] (Pool.map ~jobs:4 f []);
  Alcotest.(check (list int)) "singleton" [ f 9 ] (Pool.map ~jobs:4 f [ 9 ])

exception Boom of int

let test_map_exception_propagation () =
  (* every task runs to completion even when some fail, and the re-raised
     exception is the lowest-indexed failure, whatever order the domains
     finished in *)
  List.iter
    (fun jobs ->
      let ran = Atomic.make 0 in
      let run () =
        Pool.map ~jobs
          (fun i ->
            Atomic.incr ran;
            if i mod 3 = 1 then raise (Boom i) else i)
          (List.init 20 Fun.id)
      in
      (match run () with
      | _ -> Alcotest.failf "jobs=%d: expected Boom to escape" jobs
      | exception Boom i ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d: lowest-indexed failure wins" jobs)
            1 i);
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: all tasks still ran" jobs)
        20 (Atomic.get ran))
    [ 1; 4 ]

let test_map_runs_in_parallel () =
  (* Each of the two tasks waits for the other to start, so they can only
     both see two starts if they run at once, on two domains. A map that
     ran its items one after the other would let the first task's spin
     time out. The spin is bounded by CPU time, generous for a loaded
     machine, so that failure cannot hang. *)
  let started = Atomic.make 0 in
  let task _ =
    Atomic.incr started;
    let deadline = Sys.time () +. 10.0 in
    while Atomic.get started < 2 && Sys.time () < deadline do
      Domain.cpu_relax ()
    done;
    (Atomic.get started, (Domain.self () :> int))
  in
  match Pool.map ~jobs:2 task [ 0; 1 ] with
  | [ (s0, d0); (s1, d1) ] ->
      Alcotest.(check (list int)) "each task saw the other start" [ 2; 2 ] [ s0; s1 ];
      Alcotest.(check bool) "two distinct domains" true (d0 <> d1)
  | _ -> Alcotest.fail "expected two results"

let test_default_jobs_env () =
  (* default comes from DYNNET_JOBS; absent/garbage mean sequential *)
  let d = Pool.default_jobs () in
  Alcotest.(check bool) "default is at least 1" true (d >= 1);
  Alcotest.(check string) "env var name" "DYNNET_JOBS" Pool.env_var

(* ------------------------------------------------------------------ *)
(* experiment tables are identical at any -j                           *)

let render_experiment name ~jobs =
  let f =
    match List.assoc_opt name Experiments.all with
    | Some f -> f
    | None -> Alcotest.failf "unknown experiment %s" name
  in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let ctx = Experiments.make_ctx ~jobs ~ppf () in
  f ctx;
  Format.pp_print_flush ppf ();
  let t = ctx.Experiments.tally in
  (* alloc_bytes is intentionally excluded: per-domain GC accounting drifts
     by a few bytes between placements; the deterministic contract covers
     the simulation counters and the rendered table *)
  ( Buffer.contents buf,
    [
      t.Experiments.Results.messages;
      t.Experiments.Results.moves;
      t.Experiments.Results.bits;
      t.Experiments.Results.rows;
    ] )

let test_experiments_deterministic () =
  List.iter
    (fun name ->
      let text1, tally1 = render_experiment name ~jobs:1 in
      let text4, tally4 = render_experiment name ~jobs:4 in
      Alcotest.(check string) (name ^ ": table identical at -j 4") text1 text4;
      Alcotest.(check (list int))
        (name ^ ": messages/moves/bits/rows identical at -j 4")
        tally1 tally4)
    [ "e6"; "e10"; "e13"; "e14" ]

(* ------------------------------------------------------------------ *)
(* Explore.sweep is identical at any -j                                *)

let sweep_scenario ~discipline ~seed =
  let m = 60 and w = 20 in
  let s =
    Controller.Dist_harness.run ~seed ~scheduler:discipline
      ~shape:(Workload.Shape.Random 30) ~mix:Workload.Mix.churn ~m ~w
      ~requests:(m + 40) ()
  in
  let v = ref [] in
  if s.Controller.Dist_harness.granted > m then
    v := Printf.sprintf "granted %d > M" s.Controller.Dist_harness.granted :: !v;
  (!v, s.Controller.Dist_harness.reorders)

let test_sweep_deterministic () =
  let seeds = [ 401; 402 ] in
  let r1 = Explore.sweep ~jobs:1 ~seeds sweep_scenario in
  let r4 = Explore.sweep ~jobs:4 ~seeds sweep_scenario in
  Alcotest.(check int) "same length" (List.length r1) (List.length r4);
  List.iter2
    (fun (a : Explore.run) (b : Explore.run) ->
      Alcotest.(check string) "discipline order preserved"
        (Scheduler.name a.Explore.discipline)
        (Scheduler.name b.Explore.discipline);
      Alcotest.(check int) "seed order preserved" a.Explore.seed b.Explore.seed;
      Alcotest.(check (list string)) "violations identical" a.Explore.violations
        b.Explore.violations;
      Alcotest.(check int) "reorders identical" a.Explore.reorders b.Explore.reorders)
    r1 r4

(* However the cells are shared out among the domains, the rendered sweep
   output must be byte-identical, also with more domains asked for than
   there are cells (16 > 12). *)
let test_sweep_sharding_byte_identical () =
  let seeds = [ 401; 402; 403 ] in
  let render runs =
    String.concat "\n"
      (List.map (fun r -> Format.asprintf "%a" Explore.pp_run r) runs)
  in
  let reference = render (Explore.sweep ~jobs:1 ~seeds sweep_scenario) in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d" jobs)
        reference
        (render (Explore.sweep ~jobs ~seeds sweep_scenario)))
    [ 1; 2; 4; 16 ]

(* ------------------------------------------------------------------ *)
(* The race dynlint D7 exists to prevent, stated positively: the
   shared-accumulator formulation (a closure incrementing one ref across
   tasks — exactly the shape of the flagged
   tools/dynlint/test/fixtures_typed/d7_bad fixture) is what D7 rejects;
   the per-task-owned formulation below is the sanctioned replacement,
   and it is byte-identical at every parallelism. *)

let test_per_task_state_deterministic () =
  let items = List.init 64 (fun i -> (i * 37) mod 101) in
  let digest jobs =
    (* each task owns its accumulator (a fresh Buffer per item); the only
       cross-task combination happens at the deterministic join *)
    let parts =
      Pool.map ~jobs
        (fun x ->
          let buf = Buffer.create 8 in
          Buffer.add_string buf (string_of_int (x * x));
          Buffer.add_char buf ';';
          Buffer.contents buf)
        items
    in
    String.concat "" parts
  in
  let d1 = digest 1 in
  Alcotest.(check string) "jobs=4 byte-identical to jobs=1" d1 (digest 4);
  Alcotest.(check string) "jobs=16 byte-identical to jobs=1" d1 (digest 16)

let suite =
  ( "pool",
    [
      Alcotest.test_case "map: order and results" `Quick test_map_order_and_results;
      Alcotest.test_case "per-task state identical at any -j" `Quick
        test_per_task_state_deterministic;
      Alcotest.test_case "map: exception propagation" `Quick
        test_map_exception_propagation;
      Alcotest.test_case "map: two tasks on two domains" `Quick
        test_map_runs_in_parallel;
      Alcotest.test_case "default jobs from env" `Quick test_default_jobs_env;
      Alcotest.test_case "experiments identical at -j 4" `Quick
        test_experiments_deterministic;
      Alcotest.test_case "sweep identical at -j 4" `Quick test_sweep_deterministic;
      Alcotest.test_case "sweep sharding byte-identical" `Quick
        test_sweep_sharding_byte_identical;
    ] )
