open Controller

let drive ~variant ~seed ~shape ~mix ~m ~w ~steps =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng shape in
  let c = Adaptive.create ~variant ~m ~w ~tree () in
  let wl = Workload.make ~seed ~mix () in
  let first_reject_granted = ref None in
  (try
     for _ = 1 to steps do
       match Adaptive.request c (Workload.next_op wl tree) with
       | Types.Rejected ->
           if !first_reject_granted = None then
             first_reject_granted := Some (Adaptive.granted c)
       | Types.Granted | Types.Exhausted -> ()
     done
   with Exit -> ());
  (c, tree, !first_reject_granted)

let test_epochs_rotate () =
  (* Enough topological changes must trigger several epochs. *)
  let c, _, _ =
    drive ~variant:Adaptive.By_changes ~seed:31 ~shape:(Workload.Shape.Random 30)
      ~mix:Workload.Mix.churn ~m:2000 ~w:50 ~steps:1500
  in
  Alcotest.(check bool)
    (Printf.sprintf "epochs rotated (%d > 2)" (Adaptive.epochs c))
    true
    (Adaptive.epochs c > 2)

let test_by_doubling_rotates_on_growth () =
  let c, tree, _ =
    drive ~variant:Adaptive.By_doubling ~seed:32 ~shape:(Workload.Shape.Random 16)
      ~mix:Workload.Mix.grow_only ~m:600 ~w:50 ~steps:600
  in
  Alcotest.(check bool) "tree grew a lot" true (Dtree.size tree > 256);
  Alcotest.(check bool)
    (Printf.sprintf "epochs rotated (%d >= 3)" (Adaptive.epochs c))
    true
    (Adaptive.epochs c >= 3)

let prop_safety_liveness variant name =
  Helpers.qcheck ~count:25 name
    QCheck2.Gen.(
      quad (int_range 0 99999) (int_range 0 400) (int_range 0 50) (int_range 0 2))
    (fun (seed, m, w, mix_idx) ->
      let mix =
        List.nth Workload.Mix.[ churn; grow_only; shrink_heavy ] mix_idx
      in
      let c, _, at_reject =
        drive ~variant ~seed ~shape:(Workload.Shape.Random 30) ~mix ~m ~w
          ~steps:(2 * (m + 30))
      in
      Adaptive.granted c <= m
      &&
      match at_reject with None -> true | Some g -> g >= m - w && g <= m)

let test_growth_beyond_initial_bound () =
  (* The whole point of Section 3.3: the network may grow far beyond any
     function of n0. Start with 2 nodes and grow to hundreds. *)
  let tree = Dtree.create () in
  ignore (Dtree.add_leaf tree ~parent:(Dtree.root tree));
  let c = Adaptive.create ~m:1000 ~w:100 ~tree () in
  let wl = Workload.make ~seed:33 ~mix:Workload.Mix.grow_only () in
  let granted = ref 0 in
  for _ = 1 to 900 do
    match Adaptive.request c (Workload.next_op wl tree) with
    | Types.Granted -> incr granted
    | Types.Rejected | Types.Exhausted -> ()
  done;
  Alcotest.(check int) "all granted within budget" 900 !granted;
  Alcotest.(check bool) "tree is large now" true (Dtree.size tree > 500)

let test_rejects_after_exhaustion () =
  let tree = Dtree.create () in
  let c = Adaptive.create ~m:5 ~w:0 ~tree () in
  let outcomes =
    List.init 8 (fun _ -> Adaptive.request c (Workload.Add_leaf (Dtree.root tree)))
  in
  Alcotest.(check int) "5 grants"
    5
    (List.length (List.filter (( = ) Types.Granted) outcomes));
  Alcotest.(check int) "3 rejects"
    3
    (List.length (List.filter (( = ) Types.Rejected) outcomes));
  Alcotest.(check bool) "rejecting state" true (Adaptive.rejecting c)

(* Exact counters of seeded runs: the controller's (moves, granted, epochs,
   rejecting) and the tally of its answers (granted, rejected, exhausted).
   Both reject modes, W = 0 (the trivial endgame) and W >= 1, both
   variants, and one run that never exhausts; every exhausting run keeps
   requesting well past exhaustion, so the one-time wave charge is pinned. *)
let pinned =
  let churn = Workload.Mix.churn and grow = Workload.Mix.grow_only in
  let shrink = Workload.Mix.shrink_heavy in
  Adaptive.
    [
      (By_changes, Types.Wave, 1, 64, churn, 200, 20, 600, (898, 200, 5, true), (200, 400, 0));
      (By_changes, Types.Report, 1, 64, churn, 200, 20, 600, (804, 200, 5, true), (200, 0, 400));
      (By_changes, Types.Wave, 2, 40, churn, 100, 0, 400, (331, 100, 4, true), (100, 300, 0));
      (By_changes, Types.Report, 2, 40, churn, 100, 0, 400, (277, 100, 4, true), (100, 0, 300));
      (By_doubling, Types.Wave, 3, 16, grow, 300, 10, 700, (1485, 300, 4, true), (300, 400, 0));
      (By_doubling, Types.Report, 3, 16, grow, 300, 10, 700, (1169, 300, 4, true), (300, 0, 400));
      (By_doubling, Types.Wave, 4, 30, grow, 60, 0, 200, (271, 60, 1, true), (60, 140, 0));
      (By_changes, Types.Wave, 5, 50, shrink, 150, 5, 500, (211, 150, 27, true), (150, 350, 0));
      (By_changes, Types.Wave, 6, 30, churn, 500, 50, 300, (687, 300, 13, false), (300, 0, 0));
      (By_doubling, Types.Report, 7, 40, churn, 120, 40, 400, (531, 120, 0, true), (120, 0, 280));
    ]
  |> List.map
       (fun (variant, reject_mode, seed, n0, mix, m, w, steps, (moves, granted, epochs, rejecting), answers) ->
         let label =
           Printf.sprintf "pinned: seed %d, %s, W=%d, %s" seed
             (match reject_mode with Types.Wave -> "wave" | Report -> "report")
             w
             (match variant with Adaptive.By_changes -> "by changes" | By_doubling -> "by doubling")
         in
         Alcotest.test_case label `Quick (fun () ->
             let tree = Workload.Shape.build (Rng.create ~seed) (Workload.Shape.Random n0) in
             let c = Adaptive.create ~variant ~reject_mode ~m ~w ~tree () in
             let wl = Workload.make ~seed ~mix () in
             let g = ref 0 and r = ref 0 and x = ref 0 in
             for _ = 1 to steps do
               incr
                 (match Adaptive.request c (Workload.next_op wl tree) with
                 | Types.Granted -> g
                 | Types.Rejected -> r
                 | Types.Exhausted -> x)
             done;
             Alcotest.(check (list int)) "moves, granted, epochs"
               [ moves; granted; epochs ]
               [ Adaptive.moves c; Adaptive.granted c; Adaptive.epochs c ];
             Alcotest.(check bool) "rejecting" rejecting (Adaptive.rejecting c);
             Alcotest.(check (triple int int int)) "answers" answers (!g, !r, !x)))

let suite =
  ( "adaptive",
    [
      Alcotest.test_case "epochs rotate (by changes)" `Quick test_epochs_rotate;
      Alcotest.test_case "epochs rotate (by doubling)" `Quick test_by_doubling_rotates_on_growth;
      Alcotest.test_case "growth beyond any initial bound" `Quick test_growth_beyond_initial_bound;
      Alcotest.test_case "rejects after exhaustion" `Quick test_rejects_after_exhaustion;
      prop_safety_liveness Adaptive.By_changes "safety/liveness (by changes)";
      prop_safety_liveness Adaptive.By_doubling "safety/liveness (by doubling)";
    ]
    @ pinned )
