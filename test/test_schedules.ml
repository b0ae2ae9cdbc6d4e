(* Schedule exploration: the paper's guarantees are schedule-free, so every
   controller/estimator invariant must hold under every delivery discipline,
   not just the seeded Random_delay executions the benchmarks bake in. Each
   scenario below builds its own network under the discipline Explore hands
   it, runs a workload, and returns the invariants it saw broken. *)

open Controller

let seeds = [ 201; 202; 203; 204; 205; 206 ]

let check violations cond msg = if not cond then violations := msg :: !violations

(* --- fixed-U distributed controller (Dist) ----------------------------- *)

let dist_scenario ~budget ~discipline ~seed =
  let m, w = budget in
  let s =
    Dist_harness.run ~seed ~scheduler:discipline ~shape:(Workload.Shape.Random 30)
      ~mix:Workload.Mix.churn ~m ~w ~requests:(2 * (m + 20)) ()
  in
  let v = ref [] in
  check v
    (s.Dist_harness.granted + s.Dist_harness.rejected + s.Dist_harness.unanswered
    = s.Dist_harness.submitted)
    "some requests never answered";
  check v (s.Dist_harness.unanswered = 0) "fixed-U controller answered Exhausted";
  check v (s.Dist_harness.granted <= m)
    (Printf.sprintf "safety: granted %d > M = %d" s.Dist_harness.granted m);
  check v
    (s.Dist_harness.rejected = 0 || s.Dist_harness.granted >= m - w)
    (Printf.sprintf "liveness: rejected with granted %d < M - W = %d"
       s.Dist_harness.granted (m - w));
  (!v, s.Dist_harness.reorders)

(* --- adaptive controller (Dist_adaptive) ------------------------------- *)

let adaptive_scenario ~discipline ~seed =
  let m = 80 and w = 25 in
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 25) in
  let net = Net.create ~seed:(seed + 1) ~scheduler:discipline ~tree () in
  let da = Dist_adaptive.create ~m ~w ~net () in
  let requests = 2 * (m + 20) in
  let g, r, u =
    Dist_harness.run_on ~seed ~net ~mix:Workload.Mix.churn ~requests
      ~submit:(Dist_adaptive.submit da) ()
  in
  let v = ref [] in
  check v (g + r + u = requests) "some requests never answered";
  check v (u = 0) "adaptive controller left requests Exhausted";
  check v (g <= m) (Printf.sprintf "safety: granted %d > M = %d" g m);
  check v
    (r = 0 || g >= m - w)
    (Printf.sprintf "liveness: rejected with granted %d < M - W = %d" g (m - w));
  check v (Dist_adaptive.outstanding da = 0) "requests left outstanding";
  (!v, Net.reorders net)

(* --- size estimator (Thm 5.1): beta-approximation at every change ------ *)

let size_scenario ~discipline ~seed =
  let beta = 2.0 and changes = 200 in
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 30) in
  let net = Net.create ~seed:(seed + 1) ~scheduler:discipline ~tree () in
  let se = Estimator.Size_estimation.create ~beta ~net () in
  let worst = ref 1.0 in
  let observe () =
    let n = float_of_int (Dtree.size tree) in
    let est = float_of_int (Estimator.Size_estimation.estimate se (Dtree.root tree)) in
    let r = if est > n then est /. n else n /. est in
    if r > !worst then worst := r
  in
  Dist_harness.drive ~concurrency:4 ~net ~requests:changes
    ~submit:(Estimator.Size_estimation.submit se) ~on_answer:observe
    (Workload.make ~seed:(seed + 2) ~mix:Workload.Mix.churn ());
  Net.run net;
  let v = ref [] in
  check v
    (Estimator.Size_estimation.changes se = changes)
    (Printf.sprintf "only %d/%d changes served"
       (Estimator.Size_estimation.changes se)
       changes);
  check v
    (!worst <= beta +. 1e-9)
    (Printf.sprintf "estimate ratio %.3f exceeded beta = %.1f" !worst beta);
  (!v, Net.reorders net)

(* --- name assignment (Thm 5.2): ids unique and <= 4n at all times ------ *)

let names_scenario ~discipline ~seed =
  let changes = 200 in
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 25) in
  let net = Net.create ~seed:(seed + 1) ~scheduler:discipline ~tree () in
  let na = Estimator.Name_assignment.create ~net () in
  let v = ref [] in
  let observe () =
    let ids = Estimator.Name_assignment.ids na in
    let values = List.map snd ids in
    check v
      (List.length (List.sort_uniq compare values) = List.length values)
      "identities collide";
    check v (List.length ids = Dtree.size tree) "some live node has no identity"
  in
  Dist_harness.drive ~concurrency:4 ~net ~requests:changes
    ~submit:(Estimator.Name_assignment.submit na) ~on_answer:observe
    (Workload.make ~seed:(seed + 2) ~mix:Workload.Mix.churn ());
  Net.run net;
  check v
    (Estimator.Name_assignment.max_id_ever_ratio na <= 4.0)
    (Printf.sprintf "max id ratio ever %.2f > 4"
       (Estimator.Name_assignment.max_id_ever_ratio na));
  (!v, Net.reorders net)

(* --- sweep driver ------------------------------------------------------ *)

let assert_sweep ?(expect_reorders = true) name runs =
  List.iter
    (fun (r : Explore.run) ->
      if r.Explore.violations <> [] then
        Alcotest.failf "%s: %a" name Explore.pp_run r)
    runs;
  Alcotest.(check (list pass))
    (name ^ ": no failing runs")
    [] (Explore.failures runs);
  (* the FIFO discipline must never deliver out of per-link send order, and
     the adversary must actually be exercising reorders somewhere *)
  let fifo, rest =
    List.partition (fun r -> r.Explore.discipline = Scheduler.Fifo_link) runs
  in
  Alcotest.(check bool) (name ^ ": fifo runs reorder-free") true
    (Explore.reorder_free fifo);
  let lifo_reorders =
    List.fold_left
      (fun acc r ->
        match r.Explore.discipline with
        | Scheduler.Adversarial_lifo _ -> acc + r.Explore.reorders
        | _ -> acc)
      0 rest
  in
  if expect_reorders then
    Alcotest.(check bool) (name ^ ": adversarial runs did reorder") true
      (lifo_reorders > 0)

let test_dist_all_schedules () =
  assert_sweep "dist tight budget"
    (Explore.sweep ~seeds (dist_scenario ~budget:(60, 20)));
  assert_sweep "dist ample budget"
    (Explore.sweep ~seeds:[ 211; 212 ] (dist_scenario ~budget:(5000, 100)))

let test_adaptive_all_schedules () =
  assert_sweep "dist_adaptive" (Explore.sweep ~seeds adaptive_scenario)

(* The estimators' epoch waves keep at most one message in flight per link,
   so even the adversarial scheduler finds nothing to invert — we assert the
   bounds hold, not that reorders occurred. *)
let test_size_estimation_all_schedules () =
  assert_sweep ~expect_reorders:false "size estimation"
    (Explore.sweep ~seeds size_scenario)

let test_name_assignment_all_schedules () =
  assert_sweep ~expect_reorders:false "name assignment"
    (Explore.sweep ~seeds names_scenario)

(* --- trace-level FIFO evidence ----------------------------------------- *)

(* Deliveries recorded by telemetry carry the global send sequence number;
   under Fifo_link, grouping a deletion-free run's Deliver events by
   (src, dst) must yield strictly increasing [seq] per link — the trace
   itself proves per-link send order, independent of Net's own counter. *)
let test_trace_shows_send_order () =
  let sink = Telemetry.Sink.create () in
  let stats =
    Dist_harness.run ~seed:303 ~scheduler:Scheduler.Fifo_link ~sink
      ~shape:(Workload.Shape.Balanced (2, 40))
      ~mix:Workload.Mix.grow_only ~m:5000 ~w:100 ~requests:150 ()
  in
  Alcotest.(check int) "run itself saw no reorders" 0 stats.Dist_harness.reorders;
  let last : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let deliveries = ref 0 in
  let scheds = ref [] in
  List.iter
    (fun (e : Telemetry.Event.t) ->
      match e.Telemetry.Event.kind with
      | Telemetry.Event.Sched { discipline } -> scheds := discipline :: !scheds
      | Telemetry.Event.Deliver { src; dst; seq; reordered; _ } ->
          incr deliveries;
          if reordered then Alcotest.fail "trace flagged a reordered delivery";
          (match Hashtbl.find_opt last (src, dst) with
          | Some prev when prev > seq ->
              Alcotest.failf "link %d->%d delivered seq %d after %d" src dst seq prev
          | _ -> ());
          Hashtbl.replace last (src, dst) seq
      | _ -> ())
    (Telemetry.Sink.events sink);
  Alcotest.(check bool) "trace contains deliveries" true (!deliveries > 0);
  Alcotest.(check (list string)) "discipline recorded at creation" [ "fifo_link" ] !scheds

let suite =
  ( "schedules",
    [
      Alcotest.test_case "dist under all schedules" `Quick test_dist_all_schedules;
      Alcotest.test_case "dist_adaptive under all schedules" `Quick
        test_adaptive_all_schedules;
      Alcotest.test_case "size estimation under all schedules" `Quick
        test_size_estimation_all_schedules;
      Alcotest.test_case "name assignment under all schedules" `Quick
        test_name_assignment_all_schedules;
      Alcotest.test_case "trace shows per-link send order" `Quick
        test_trace_shows_send_order;
    ] )
