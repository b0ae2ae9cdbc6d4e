open Controller

let run ?scheduler ~seed ~n0 ~m ~w ~requests ~mix ?(concurrency = 6) () =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
  let net = Net.create ~seed:(seed + 1) ?scheduler ~tree () in
  let da = Dist_adaptive.create ~m ~w ~net () in
  let g, r, u =
    Dist_harness.run_on ~seed ~concurrency ~net ~mix ~requests
      ~submit:(Dist_adaptive.submit da) ()
  in
  (da, net, tree, g, r, u)

let test_growth_rotates_epochs () =
  let da, _, tree, g, _, _ =
    run ~seed:71 ~n0:12 ~m:2000 ~w:100 ~requests:500 ~mix:Workload.Mix.grow_only ()
  in
  Alcotest.(check int) "all granted" 500 g;
  Alcotest.(check bool) "tree grew" true (Dtree.size tree > 400);
  Alcotest.(check bool)
    (Printf.sprintf "epochs rotated (%d >= 3)" (Dist_adaptive.epochs da))
    true
    (Dist_adaptive.epochs da >= 3);
  Alcotest.(check int) "none outstanding" 0 (Dist_adaptive.outstanding da)

let test_exhaustion_rejects () =
  let m = 60 and w = 20 in
  let da, _, _, g, r, u =
    run ~seed:72 ~n0:30 ~m ~w ~requests:250 ~mix:Workload.Mix.churn ()
  in
  Alcotest.(check int) "all answered" 250 (g + r + u);
  Alcotest.(check int) "no unanswered" 0 u;
  Alcotest.(check bool) "safety" true (g <= m);
  Alcotest.(check bool) "rejections happened" true (r > 0);
  Alcotest.(check bool)
    (Printf.sprintf "liveness %d >= %d" g (m - w))
    true
    (g >= m - w);
  Alcotest.(check bool) "rejecting state" true (Dist_adaptive.rejecting da)

let test_churn_with_deletions () =
  let da, net, tree, g, r, u =
    run ~seed:73 ~n0:60 ~m:3000 ~w:200 ~requests:400 ~mix:Workload.Mix.shrink_heavy
      ~concurrency:10 ()
  in
  Dtree.check tree;
  Alcotest.(check int) "all answered" 400 (g + r + u);
  Alcotest.(check int) "all granted (ample budget)" 400 g;
  Alcotest.(check bool) "messages flowed" true (Net.messages net > 0);
  Alcotest.(check int) "none outstanding" 0 (Dist_adaptive.outstanding da)

let prop_safety_liveness =
  Helpers.qcheck ~count:16 "adaptive distributed safety/liveness"
    QCheck2.Gen.(triple (int_range 0 9999) (int_range 5 150) (int_range 0 30))
    (fun (seed, m, w) ->
      let _, _, _, g, r, u =
        run ~seed ~n0:25 ~m ~w ~requests:(2 * (m + 20)) ~mix:Workload.Mix.churn ()
      in
      g <= m && u = 0 && (r = 0 || g >= m - w))

let test_w0_exact () =
  let m = 40 in
  let _, _, _, g, r, _ =
    run ~seed:74 ~n0:20 ~m ~w:0 ~requests:160 ~mix:Workload.Mix.grow_only ()
  in
  Alcotest.(check bool) "rejections happened" true (r > 0);
  Alcotest.(check int) "W=0 grants exactly M" m g

(* Exact counters of seeded runs: (messages, time, overhead, epochs,
   granted, rejected). Each run takes a different path through the stage
   schedule, under both the FIFO and the adversarial discipline:
   - W = 0: one halving stage whose epoch rotation leaves one permit, the
     trivial endgame serves it, then rejection;
   - halving stages down to the final stage, one epoch-only rotation of the
     final stage (FIFO), and a final stage that exhausts into rejection;
   - a halving stage that exhausts straight into rejection;
   - the final stage from the start, rotating by changes only. *)
let pinned =
  let lifo = Scheduler.Adversarial_lifo { window = 8 } in
  let churn = Workload.Mix.churn and grow = Workload.Mix.grow_only in
  [
    ("W=0 trivial endgame", 2, 20, 25, 0, 60, churn, 4,
     (372, 642, 131, 1, 25, 35), (312, 938, 124, 1, 25, 35));
    ("halving into final, then rejecting", 1, 30, 150, 30, 450, churn, 6,
     (6028, 9111, 996, 5, 150, 300), (5816, 14171, 1204, 4, 150, 300));
    ("halving exhausts into rejection", 1, 200, 60, 5, 120, churn, 6,
     (2434, 3202, 1248, 1, 60, 60), (2370, 5570, 1296, 1, 60, 60));
    ("final stage, epochs by changes", 8, 10, 100, 60, 90, grow, 4,
     (1482, 2401, 700, 3, 90, 0), (1168, 3336, 700, 3, 90, 0));
  ]
  |> List.concat_map (fun (name, seed, n0, m, w, requests, mix, concurrency, fifo, adv) ->
         List.map
           (fun (scheduler, (messages, now, overhead, epochs, granted, rejected)) ->
             let label = Printf.sprintf "pinned: %s (%s)" name (Scheduler.name scheduler) in
             Alcotest.test_case label `Quick (fun () ->
                 let da, net, _, _, _, _ =
                   run ~scheduler ~seed ~n0 ~m ~w ~requests ~mix ~concurrency ()
                 in
                 Alcotest.(check (list int))
                   "messages, time, overhead, epochs, granted, rejected"
                   [ messages; now; overhead; epochs; granted; rejected ]
                   [
                     Net.messages net;
                     Net.now net;
                     Dist_adaptive.overhead_messages da;
                     Dist_adaptive.epochs da;
                     Dist_adaptive.granted da;
                     Dist_adaptive.rejected da;
                   ]))
           [ (Scheduler.Fifo_link, fifo); (lifo, adv) ])

let suite =
  ( "dist-adaptive",
    [
      Alcotest.test_case "growth rotates epochs" `Quick test_growth_rotates_epochs;
      Alcotest.test_case "exhaustion rejects within window" `Quick test_exhaustion_rejects;
      Alcotest.test_case "heavy deletion churn" `Quick test_churn_with_deletions;
      Alcotest.test_case "W=0 grants exactly M" `Quick test_w0_exact;
      prop_safety_liveness;
    ]
    @ pinned )
