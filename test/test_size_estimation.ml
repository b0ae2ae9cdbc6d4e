let drive ~seed ~n0 ~beta ~changes ~mix ?(concurrency = 4) () =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
  let net = Net.create ~seed:(seed + 1) ~tree () in
  let se = Estimator.Size_estimation.create ~beta ~net () in
  let worst_ratio = ref 1.0 in
  let observe () =
    let n = float_of_int (Dtree.size tree) in
    let est = float_of_int (Estimator.Size_estimation.estimate se (Dtree.root tree)) in
    let r = if est > n then est /. n else n /. est in
    if r > !worst_ratio then worst_ratio := r
  in
  Controller.Dist_harness.drive ~concurrency ~net ~requests:changes
    ~submit:(Estimator.Size_estimation.submit se) ~on_answer:observe
    (Workload.make ~seed:(seed + 2) ~mix ());
  Net.run net;
  (se, net, tree, !worst_ratio)

let test_approximation_holds () =
  List.iter
    (fun beta ->
      let se, _, _, worst =
        drive ~seed:81 ~n0:60 ~beta ~changes:500 ~mix:Workload.Mix.churn ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "beta=%.1f: worst ratio %.3f within bound" beta worst)
        true
        (worst <= beta +. 1e-9);
      Alcotest.(check bool) "epochs rotated" true (Estimator.Size_estimation.epochs se > 0))
    [ 1.5; 2.0; 3.0 ]

let test_all_changes_served () =
  let se, _, _, _ =
    drive ~seed:82 ~n0:40 ~beta:2.0 ~changes:300 ~mix:Workload.Mix.shrink_heavy ()
  in
  Alcotest.(check int) "every change applied" 300 (Estimator.Size_estimation.changes se)

let test_growth () =
  let se, net, tree, worst =
    drive ~seed:83 ~n0:10 ~beta:2.0 ~changes:600 ~mix:Workload.Mix.grow_only ()
  in
  Alcotest.(check bool) "grew far past n0" true (Dtree.size tree > 300);
  Alcotest.(check bool)
    (Printf.sprintf "approximation held during growth (%.3f)" worst)
    true (worst <= 2.0 +. 1e-9);
  (* Thm 5.1 shape: amortized messages per change should be polylog, far less
     than n. *)
  let per_change =
    float_of_int (Net.messages net + Estimator.Size_estimation.overhead_messages se)
    /. 600.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "amortized %.1f messages/change is o(n)" per_change)
    true
    (per_change < float_of_int (Dtree.size tree) /. 2.0)

(* An op that is no longer valid for the tree when the engine routes it
   is refused, and the engine keeps serving: the second change names the
   leaf the first one removed. *)
let test_dead_op_refused () =
  let tree = Workload.Shape.build (Rng.create ~seed:84) (Workload.Shape.Path 12) in
  let net = Net.create ~seed:85 ~tree () in
  let se = Estimator.Size_estimation.create ~net () in
  let v = Dtree.any_leaf tree and answers = ref 0 in
  let answer () = incr answers in
  Estimator.Size_estimation.submit se (Workload.Remove_leaf v) ~k:(fun () ->
      answer ();
      Estimator.Size_estimation.submit se (Workload.Add_leaf v) ~k:(fun () ->
          answer ();
          Estimator.Size_estimation.submit se (Workload.Add_leaf (Dtree.root tree)) ~k:answer));
  Net.run net;
  Alcotest.(check int) "every change answered" 3 !answers;
  Alcotest.(check int) "the dead node's change is not applied" 2
    (Estimator.Size_estimation.changes se);
  Alcotest.(check int) "size" 12 (Dtree.size tree)

let prop_approximation =
  Helpers.qcheck ~count:14 "beta-approximation at every change"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 2))
    (fun (seed, mix_idx) ->
      let mix =
        List.nth Workload.Mix.[ churn; grow_only; shrink_heavy ] mix_idx
      in
      let _, _, _, worst = drive ~seed ~n0:30 ~beta:2.0 ~changes:250 ~mix () in
      worst <= 2.0 +. 1e-9)

let suite =
  ( "size-estimation",
    [
      Alcotest.test_case "approximation across betas" `Quick test_approximation_holds;
      Alcotest.test_case "all changes served" `Quick test_all_changes_served;
      Alcotest.test_case "unbounded growth" `Quick test_growth;
      Alcotest.test_case "an op on a dead node is refused" `Quick test_dead_op_refused;
      prop_approximation;
    ] )
