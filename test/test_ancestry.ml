let check_all_pairs tree al =
  let nodes = Dtree.live_nodes tree in
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          let expected = Dtree.is_ancestor tree ~anc:u ~desc:v in
          let got = Estimator.Ancestry_labeling.is_ancestor al ~anc:u ~desc:v in
          if expected <> got then
            Alcotest.failf "ancestry(%d, %d): labels say %b, tree says %b" u v got expected)
        nodes)
    nodes

let drive ~seed ~shape ~changes ~mix ~check_every =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng shape in
  let al = Estimator.Ancestry_labeling.create ~tree () in
  let wl = Workload.make ~seed:(seed + 1) ~mix () in
  for i = 1 to changes do
    Estimator.Ancestry_labeling.submit al (Workload.next_op wl tree);
    if i mod check_every = 0 then check_all_pairs tree al
  done;
  check_all_pairs tree al;
  (al, tree)

let test_correct_under_churn () =
  let al, tree =
    drive ~seed:111 ~shape:(Workload.Shape.Random 40) ~changes:300
      ~mix:Workload.Mix.churn ~check_every:25
  in
  Dtree.check tree;
  Alcotest.(check bool) "relabels happened" true (Estimator.Ancestry_labeling.relabels al > 0)

let test_label_size_optimal () =
  let al, tree =
    drive ~seed:112 ~shape:(Workload.Shape.Random 60) ~changes:400
      ~mix:Workload.Mix.churn ~check_every:100
  in
  let n = Dtree.size tree in
  let bits = Estimator.Ancestry_labeling.label_bits al in
  (* (low, high) labels: 2 (log n + O(1)) bits. *)
  Alcotest.(check bool)
    (Printf.sprintf "label bits %d <= 2 log n + O(1) for n = %d" bits n)
    true
    (bits <= (2 * Stats.ceil_log2 (max 2 n)) + 14)

let test_deletions_free () =
  (* Removing nodes must not trigger any relabel nor touch other labels. *)
  let rng = Rng.create ~seed:113 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 50) in
  let al = Estimator.Ancestry_labeling.create ~tree () in
  let survivors =
    List.filter (fun v -> v <> Dtree.root tree) (Dtree.live_nodes tree)
  in
  let victims = List.filteri (fun i _ -> i mod 3 = 0) survivors in
  let before = Estimator.Ancestry_labeling.relabels al in
  List.iter
    (fun v ->
      if Dtree.live tree v then
        if Dtree.is_leaf tree v then
          Estimator.Ancestry_labeling.submit al (Workload.Remove_leaf v)
        else Estimator.Ancestry_labeling.submit al (Workload.Remove_internal v))
    victims;
  check_all_pairs tree al;
  Alcotest.(check int) "no relabel for deletions" before
    (Estimator.Ancestry_labeling.relabels al)

let prop_correctness =
  Helpers.qcheck ~count:6 "ancestry queries always correct"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 2))
    (fun (seed, mix_idx) ->
      let mix = List.nth Workload.Mix.[ churn; grow_only; shrink_heavy ] mix_idx in
      let _, _ =
        drive ~seed ~shape:(Workload.Shape.Random 25) ~changes:150 ~mix ~check_every:15
      in
      true)

let suite =
  ( "ancestry-labeling",
    [
      Alcotest.test_case "correct under churn" `Quick test_correct_under_churn;
      Alcotest.test_case "label size asymptotically optimal" `Quick test_label_size_optimal;
      Alcotest.test_case "deletions are free" `Quick test_deletions_free;
      prop_correctness;
    ] )
