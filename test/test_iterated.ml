open Controller

let drive_until_reject ~seed ~shape ~mix ~m ~w ~steps =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng shape in
  let u = Dtree.size tree + steps in
  let c = Iterated.create ~m ~w ~u ~tree () in
  let wl = Workload.make ~seed ~mix () in
  let first_reject_granted = ref None in
  let steps_done = ref 0 in
  (try
     for _ = 1 to steps do
       incr steps_done;
       match Iterated.request c (Workload.next_op wl tree) with
       | Types.Rejected ->
           first_reject_granted := Some (Iterated.granted c);
           raise Exit
       | Types.Granted | Types.Exhausted -> ()
     done
   with Exit -> ());
  (c, tree, !first_reject_granted)

let test_w0_grants_exactly_m () =
  let m = 60 in
  let c, _, at_reject =
    drive_until_reject ~seed:11 ~shape:(Workload.Shape.Random 50)
      ~mix:Workload.Mix.churn ~m ~w:0 ~steps:500
  in
  (match at_reject with
  | None -> Alcotest.fail "expected a reject"
  | Some g -> Alcotest.(check int) "W=0 grants exactly M" m g);
  Alcotest.(check int) "total granted" m (Iterated.granted c)

let test_liveness_small_w () =
  List.iter
    (fun w ->
      let m = 200 in
      let _, _, at_reject =
        drive_until_reject ~seed:(13 + w) ~shape:(Workload.Shape.Random 80)
          ~mix:Workload.Mix.churn ~m ~w ~steps:1000
      in
      match at_reject with
      | None -> Alcotest.fail "expected a reject"
      | Some g ->
          Alcotest.(check bool)
            (Printf.sprintf "W=%d: granted %d within [M-W, M]" w g)
            true
            (g >= m - w && g <= m))
    [ 0; 1; 3; 10 ]

let test_iterations_grow_with_m_over_w () =
  (* Observation 3.4: the number of halving iterations is O(log (M/(W+1))). *)
  let run w =
    let c, _, _ =
      drive_until_reject ~seed:17 ~shape:(Workload.Shape.Random 60)
        ~mix:Workload.Mix.grow_only ~m:512 ~w ~steps:1200
    in
    Iterated.iterations c
  in
  let small_w = run 1 and large_w = run 256 in
  Alcotest.(check bool)
    (Printf.sprintf "more iterations for small W (%d >= %d)" small_w large_w)
    true
    (small_w >= large_w);
  Alcotest.(check bool) "iteration count logarithmic" true (small_w <= 12)

let test_report_mode () =
  let tree = Dtree.create () in
  let c = Iterated.create ~reject_mode:Types.Report ~m:0 ~w:0 ~u:4 ~tree () in
  Alcotest.(check Helpers.outcome) "exhausted, not rejected" Types.Exhausted
    (Iterated.request c (Workload.Add_leaf (Dtree.root tree)));
  Alcotest.(check bool) "rejecting" true (Iterated.rejecting c)

(* Observation 2.1: in report mode the controller is a terminating one. Its
   first [Exhausted] answer is the termination: by then it has granted
   between M - W and M permits, and it grants nothing afterwards. *)
let test_terminates_in_window () =
  let rng = Rng.create ~seed:41 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 40) in
  let m = 100 and w = 20 in
  let c =
    Iterated.create ~reject_mode:Types.Report ~m ~w ~u:(Dtree.size tree + 400) ~tree ()
  in
  let wl = Workload.make ~seed:41 ~mix:Workload.Mix.churn () in
  let after_term_grants = ref 0 and exhausted = ref 0 in
  for _ = 1 to 400 do
    let was_terminated = Iterated.rejecting c in
    match Iterated.request c (Workload.next_op wl tree) with
    | Types.Granted -> if was_terminated then incr after_term_grants
    | Types.Exhausted -> incr exhausted
    | Types.Rejected -> Alcotest.fail "rejected in report mode"
  done;
  Alcotest.(check bool) "terminated" true (Iterated.rejecting c);
  Alcotest.(check int) "no grant after termination" 0 !after_term_grants;
  let g = Iterated.granted c in
  Alcotest.(check bool)
    (Printf.sprintf "grants %d within [M-W, M]" g)
    true
    (g >= m - w && g <= m);
  Alcotest.(check int) "every other request answered Exhausted" (400 - g) !exhausted

let test_no_termination_below_m () =
  (* Fewer than M requests: every one must be granted, no termination. *)
  let rng = Rng.create ~seed:42 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 30) in
  let c = Iterated.create ~reject_mode:Types.Report ~m:500 ~w:50 ~u:1000 ~tree () in
  let wl = Workload.make ~seed:42 ~mix:Workload.Mix.churn () in
  for _ = 1 to 120 do
    Alcotest.(check Helpers.outcome) "granted" Types.Granted
      (Iterated.request c (Workload.next_op wl tree))
  done;
  Alcotest.(check int) "all granted" 120 (Iterated.granted c);
  Alcotest.(check bool) "not terminated" false (Iterated.rejecting c)

let prop_termination_window =
  Helpers.qcheck ~count:30 "report: window [M-W, M]"
    QCheck2.Gen.(triple (int_range 0 99999) (int_range 1 200) (int_range 0 40))
    (fun (seed, m, w) ->
      let rng = Rng.create ~seed in
      let tree = Workload.Shape.build rng (Workload.Shape.Random 25) in
      let c =
        Iterated.create ~reject_mode:Types.Report ~m ~w
          ~u:(Dtree.size tree + (3 * m) + 50)
          ~tree ()
      in
      let wl = Workload.make ~seed ~mix:Workload.Mix.churn () in
      for _ = 1 to (2 * m) + 40 do
        ignore (Iterated.request c (Workload.next_op wl tree))
      done;
      let g = Iterated.granted c in
      (not (Iterated.rejecting c)) || (g >= m - w && g <= m))

let test_zero_m () =
  let tree = Dtree.create () in
  let c = Iterated.create ~m:0 ~w:0 ~u:4 ~tree () in
  Alcotest.(check Helpers.outcome) "reject at once" Types.Rejected
    (Iterated.request c (Workload.Add_leaf (Dtree.root tree)));
  Alcotest.(check int) "nothing granted" 0 (Iterated.granted c)

let prop_safety_liveness =
  Helpers.qcheck ~count:30 "safety and liveness across (M, W) space"
    QCheck2.Gen.(
      triple (int_range 0 99999) (int_range 0 300) (int_range 0 60))
    (fun (seed, m, w) ->
      let c, _, at_reject =
        drive_until_reject ~seed ~shape:(Workload.Shape.Random 40)
          ~mix:Workload.Mix.churn ~m ~w ~steps:(2 * (m + 20))
      in
      Iterated.granted c <= m
      &&
      match at_reject with None -> true | Some g -> g >= m - w && g <= m)

(* The move complexity advantage: on deep trees the iterated controller beats
   the trivial root-walk controller by a wide margin once M is large. *)
let test_beats_trivial_on_path () =
  let build () =
    let rng = Rng.create ~seed:23 in
    Workload.Shape.build rng (Workload.Shape.Path 600)
  in
  let requests tree =
    (* many events at the deep end of the path *)
    let leaf = List.hd (Dtree.leaves tree) in
    List.init 400 (fun _ -> Workload.Non_topological leaf)
  in
  let tree1 = build () in
  let ours = Iterated.create ~m:2000 ~w:1000 ~u:1200 ~tree:tree1 () in
  List.iter (fun op -> ignore (Iterated.request ours op)) (requests tree1);
  let tree2 = build () in
  let trivial = Baseline_trivial.create ~m:2000 ~tree:tree2 in
  List.iter (fun op -> ignore (Baseline_trivial.request trivial op)) (requests tree2);
  Alcotest.(check bool)
    (Printf.sprintf "ours %d < trivial %d moves" (Iterated.moves ours)
       (Baseline_trivial.moves trivial))
    true
    (Iterated.moves ours < Baseline_trivial.moves trivial)

let suite =
  ( "iterated",
    [
      Alcotest.test_case "W=0 grants exactly M" `Quick test_w0_grants_exactly_m;
      Alcotest.test_case "liveness for small W" `Quick test_liveness_small_w;
      Alcotest.test_case "iterations ~ log(M/W)" `Quick test_iterations_grow_with_m_over_w;
      Alcotest.test_case "report mode" `Quick test_report_mode;
      Alcotest.test_case "report: terminates within window" `Quick test_terminates_in_window;
      Alcotest.test_case "report: no termination below M" `Quick test_no_termination_below_m;
      prop_termination_window;
      Alcotest.test_case "M = 0" `Quick test_zero_m;
      Alcotest.test_case "beats trivial on deep paths" `Quick test_beats_trivial_on_path;
      prop_safety_liveness;
    ] )
