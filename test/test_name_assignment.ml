let check_unique_and_short tree na worst =
  let ids = Estimator.Name_assignment.ids na in
  let values = List.map snd ids in
  if List.length (List.sort_uniq compare values) <> List.length values then
    Alcotest.fail "identities collide";
  Alcotest.(check int) "one id per live node" (Dtree.size tree) (List.length ids);
  List.iter (fun i -> if i < 1 then Alcotest.fail "identity below 1") values;
  let n = Dtree.size tree in
  let max_id = List.fold_left max 0 values in
  if max_id > 4 * n then
    Alcotest.failf "identity %d exceeds 4n = %d" max_id (4 * n);
  worst := max !worst (float_of_int max_id /. float_of_int n)

let drive ~seed ~n0 ~changes ~mix () =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
  let net = Net.create ~seed:(seed + 1) ~tree () in
  let na = Estimator.Name_assignment.create ~net () in
  let worst = ref 0.0 in
  Controller.Dist_harness.drive ~concurrency:4 ~net ~requests:changes
    ~submit:(Estimator.Name_assignment.submit na)
    ~on_answer:(fun () -> check_unique_and_short tree na worst)
    (Workload.make ~seed:(seed + 2) ~mix ());
  Net.run net;
  (na, tree, !worst)

let test_churn () =
  let na, _, _ = drive ~seed:91 ~n0:50 ~changes:400 ~mix:Workload.Mix.churn () in
  Alcotest.(check bool) "epochs rotated" true (Estimator.Name_assignment.epochs na > 0);
  Alcotest.(check bool)
    (Printf.sprintf "max id ratio ever %.2f <= 4" (Estimator.Name_assignment.max_id_ever_ratio na))
    true
    (Estimator.Name_assignment.max_id_ever_ratio na <= 4.0)

let test_growth_and_shrink () =
  let _, tree, worst =
    drive ~seed:92 ~n0:20 ~changes:500 ~mix:Workload.Mix.shrink_heavy ()
  in
  Dtree.check tree;
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f <= 4" worst) true (worst <= 4.0)

let prop_invariants =
  Helpers.qcheck ~count:8 "identities unique and short at all times"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 2))
    (fun (seed, mix_idx) ->
      let mix = List.nth Workload.Mix.[ churn; grow_only; shrink_heavy ] mix_idx in
      let na, _, _ = drive ~seed ~n0:25 ~changes:250 ~mix () in
      Estimator.Name_assignment.max_id_ever_ratio na <= 4.0)

(* --- faithful interval-permit variant (centralized) -------------------- *)

module Nc = Estimator.Name_assignment_central

let drive_central ~seed ~n0 ~changes ~mix =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
  let na = Nc.create ~tree () in
  let wl = Workload.make ~seed:(seed + 1) ~mix () in
  for _ = 1 to changes do
    Nc.submit na (Workload.next_op wl tree);
    (* uniqueness at every single step *)
    let values = List.map snd (Nc.ids na) in
    if List.length (List.sort_uniq compare values) <> List.length values then
      Alcotest.fail "interval-permit identities collide";
    if List.length values <> Dtree.size tree then
      Alcotest.fail "a live node is missing an identity"
  done;
  (na, tree)

let test_interval_permits_unique_and_short () =
  let na, _ = drive_central ~seed:95 ~n0:40 ~changes:300 ~mix:Workload.Mix.churn in
  Alcotest.(check bool)
    (Printf.sprintf "max ratio ever %.2f <= 4" (Nc.max_id_ever_ratio na))
    true
    (Nc.max_id_ever_ratio na <= 4.0);
  Alcotest.(check bool) "epochs rotated" true (Nc.epochs na > 0)

let test_interval_ids_in_band () =
  (* between renumberings, fresh identities come from the epoch's interval
     [N_i + 1, 3 N_i / 2] — the literal Theorem 5.2 mechanism *)
  let rng = Rng.create ~seed:96 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 60) in
  let na = Nc.create ~tree () in
  let n_i = Dtree.size tree in
  let before = List.map fst (Nc.ids na) in
  for _ = 1 to 10 do
    Nc.submit na (Workload.Add_leaf (Dtree.root tree))
  done;
  List.iter
    (fun (v, i) ->
      if not (List.mem v before) then
        if i <= n_i || i > (3 * n_i / 2) + 1 then
          Alcotest.failf "fresh id %d outside (N_i, 3N_i/2] for N_i = %d" i n_i)
    (Nc.ids na)

let prop_interval_variant =
  Helpers.qcheck ~count:8 "interval-permit identities unique and short"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 2))
    (fun (seed, mix_idx) ->
      let mix = List.nth Workload.Mix.[ churn; grow_only; shrink_heavy ] mix_idx in
      let na, _ = drive_central ~seed ~n0:25 ~changes:200 ~mix in
      Nc.max_id_ever_ratio na <= 4.0)

let suite =
  ( "name-assignment",
    [
      Alcotest.test_case "churn keeps names unique and short" `Quick test_churn;
      Alcotest.test_case "heavy shrink" `Quick test_growth_and_shrink;
      prop_invariants;
      Alcotest.test_case "interval permits: unique and short" `Quick
        test_interval_permits_unique_and_short;
      Alcotest.test_case "interval permits: ids from the epoch band" `Quick
        test_interval_ids_in_band;
      prop_interval_variant;
    ] )
