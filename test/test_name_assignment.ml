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

(* Between renumberings, a granted insertion names the new node with the
   next integer of the epoch band [N_i + 1, N_i + max (2, N_i / 2)]: the
   epoch's controller holds that many permits. Returns the fresh ids in
   grant order. *)
let fresh_ids ~shape ~inserts =
  let rng = Rng.create ~seed:96 in
  let tree = Workload.Shape.build rng shape in
  let net = Net.create ~seed:97 ~tree () in
  let na = Estimator.Name_assignment.create ~net () in
  let n_i = Dtree.size tree in
  let before = Estimator.Name_assignment.ids na in
  for _ = 1 to inserts do
    Estimator.Name_assignment.submit na (Workload.Add_leaf (Dtree.root tree)) ~k:ignore
  done;
  Net.run net;
  Alcotest.(check int) "no rotation" 0 (Estimator.Name_assignment.epochs na);
  let all = Estimator.Name_assignment.ids na in
  let fresh =
    List.filter (fun b -> not (List.mem b before)) all |> List.map snd |> List.sort Int.compare
  in
  Alcotest.(check int) "every insertion named" inserts (List.length fresh);
  let hi = n_i + max 2 (n_i / 2) in
  List.iter
    (fun i ->
      if i < n_i + 1 || i > hi then
        Alcotest.failf "fresh id %d outside [N_i + 1, %d] for N_i = %d" i hi n_i)
    fresh;
  let n = Dtree.size tree and max_id = List.fold_left (fun m (_, i) -> max m i) 0 all in
  if max_id > 4 * n then Alcotest.failf "max id %d exceeds 4n = %d" max_id (4 * n);
  fresh

let test_fresh_ids_in_band () =
  ignore (fresh_ids ~shape:(Workload.Shape.Random 60) ~inserts:25 : int list);
  (* below N_i = 4 the band is wider than N_i / 2: two permits, so two
     insertions into a 2-node path take 3 and 4, and into a 3-node path
     4 and 5 *)
  Alcotest.(check (list int)) "2-node path" [ 3; 4 ]
    (fresh_ids ~shape:(Workload.Shape.Path 2) ~inserts:2);
  Alcotest.(check (list int)) "3-node path" [ 4; 5 ]
    (fresh_ids ~shape:(Workload.Shape.Path 3) ~inserts:2)

let suite =
  ( "name-assignment",
    [
      Alcotest.test_case "churn keeps names unique and short" `Quick test_churn;
      Alcotest.test_case "heavy shrink" `Quick test_growth_and_shrink;
      prop_invariants;
      Alcotest.test_case "fresh ids from the epoch band" `Quick test_fresh_ids_in_band;
    ] )
