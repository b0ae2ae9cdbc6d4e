let drive_subtree ~seed ~shape ~changes ~mix =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng shape in
  let est = Estimator.Subtree_estimator.create ~tree () in
  let wl = Workload.make ~seed:(seed + 1) ~mix () in
  for _ = 1 to changes do
    Estimator.Subtree_estimator.submit est (Workload.next_op wl tree)
  done;
  (est, tree)

let test_estimates_cover_super_weight () =
  let est, tree =
    drive_subtree ~seed:101 ~shape:(Workload.Shape.Random 80) ~changes:300
      ~mix:Workload.Mix.churn
  in
  (* omega~ never under-estimates SW (every addition's permit passed every
     ancestor), and stays within a small factor of it on average. *)
  let ratios =
    List.filter_map
      (fun v ->
        let sw = Estimator.Subtree_estimator.super_weight est v in
        let e = Estimator.Subtree_estimator.estimate est v in
        if sw = 0 then None
        else begin
          if e < sw then
            Alcotest.failf "node %d: estimate %d below super-weight %d" v e sw;
          Some (float_of_int e /. float_of_int sw)
        end)
      (Dtree.live_nodes tree)
  in
  let avg = Stats.mean ratios in
  Alcotest.(check bool)
    (Printf.sprintf "mean over-estimation factor %.2f bounded" avg)
    true
    (avg < 4.0)

let test_estimates_grow_with_changes () =
  let rng = Rng.create ~seed:102 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 50) in
  let est = Estimator.Subtree_estimator.create ~tree () in
  let leaf = List.hd (Dtree.leaves tree) in
  let mid = Option.get (Dtree.ancestor_at tree leaf 25) in
  let before = Estimator.Subtree_estimator.estimate est mid in
  for _ = 1 to 5 do
    Estimator.Subtree_estimator.submit est (Workload.Add_leaf leaf)
  done;
  Alcotest.(check bool) "mid-path estimate grew" true
    (Estimator.Subtree_estimator.estimate est mid > before);
  Alcotest.(check int) "ground truth grew by 5" (26 + 5)
    (Estimator.Subtree_estimator.super_weight est mid)

let light_bound est_base tree hc =
  (* The decomposition promise: O(log SW(root)) light ancestors. We allow a
     generous constant over log_{4/3}. *)
  ignore est_base;
  let sw_root =
    Estimator.Subtree_estimator.super_weight (Estimator.Heavy_child.estimator hc) 0
  in
  let bound = 4.0 *. (log (float_of_int (max 2 sw_root)) /. log (4.0 /. 3.0)) in
  let worst = Estimator.Heavy_child.max_light_ancestors hc in
  ignore tree;
  (worst, bound)

let drive_heavy ~seed ~shape ~changes ~mix =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng shape in
  let hc = Estimator.Heavy_child.create ~tree () in
  let wl = Workload.make ~seed:(seed + 1) ~mix () in
  for _ = 1 to changes do
    Estimator.Heavy_child.submit hc (Workload.next_op wl tree)
  done;
  (hc, tree)

let test_heavy_pointers_valid () =
  let hc, tree =
    drive_heavy ~seed:103 ~shape:(Workload.Shape.Random 60) ~changes:250
      ~mix:Workload.Mix.churn
  in
  Dtree.iter_nodes tree ~f:(fun v ->
      match Estimator.Heavy_child.heavy hc v with
      | None ->
          if not (Dtree.is_leaf tree v) then
            Alcotest.failf "internal node %d lacks a heavy child" v
      | Some c ->
          if not (List.mem c (Dtree.children tree v)) then
            Alcotest.failf "mu(%d) = %d is not a child" v c)

let test_light_ancestors_logarithmic () =
  List.iter
    (fun (shape, mix, changes) ->
      let hc, tree = drive_heavy ~seed:104 ~shape ~changes ~mix in
      let worst, bound = light_bound () tree hc in
      Alcotest.(check bool)
        (Printf.sprintf "%s: max light ancestors %d <= %.0f"
           (Workload.Shape.name shape) worst bound)
        true
        (float_of_int worst <= bound))
    [
      (Workload.Shape.Random 100, Workload.Mix.churn, 300);
      (Workload.Shape.Path 120, Workload.Mix.grow_only, 200);
      (Workload.Shape.Balanced (2, 127), Workload.Mix.churn, 300);
      (Workload.Shape.Star 80, Workload.Mix.churn, 200);
    ]

let test_heavy_points_to_heaviest_on_path () =
  (* On a path, every internal node's only child is trivially heavy. *)
  let rng = Rng.create ~seed:105 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 40) in
  let hc = Estimator.Heavy_child.create ~tree () in
  Dtree.iter_nodes tree ~f:(fun v ->
      match Dtree.children tree v with
      | [ only ] ->
          Alcotest.(check (option int))
            (Printf.sprintf "mu(%d)" v)
            (Some only)
            (Estimator.Heavy_child.heavy hc v)
      | _ -> ());
  Alcotest.(check int) "no light ancestors on a path" 0
    (Estimator.Heavy_child.max_light_ancestors hc)

let prop_light_bound =
  Helpers.qcheck ~count:6 "light ancestors stay logarithmic"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 2))
    (fun (seed, mix_idx) ->
      let mix = List.nth Workload.Mix.[ churn; grow_only; shrink_heavy ] mix_idx in
      let hc, tree = drive_heavy ~seed ~shape:(Workload.Shape.Random 50) ~changes:200 ~mix in
      let worst, bound = light_bound () tree hc in
      float_of_int worst <= bound)

(* --- distributed subtree estimator (Lemma 5.3 over the simulator) ------ *)

module Sd = Estimator.Subtree_estimator_dist

let drive_subtree_dist ~seed ~n0 ~changes ~mix ~concurrency =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
  let net = Net.create ~seed:(seed + 1) ~tree () in
  let est = Sd.create ~net () in
  Controller.Dist_harness.drive ~concurrency ~net ~requests:changes ~submit:(Sd.submit est)
    ~on_answer:ignore (Workload.make ~seed:(seed + 2) ~mix ());
  Net.run net;
  (est, net, tree)

let test_dist_estimates_cover_sw () =
  let est, net, tree =
    drive_subtree_dist ~seed:107 ~n0:70 ~changes:300 ~mix:Workload.Mix.churn
      ~concurrency:6
  in
  Alcotest.(check bool) "messages flowed" true (Net.messages net > 0);
  let ratios =
    List.filter_map
      (fun v ->
        let sw = Sd.super_weight est v in
        let e = Sd.estimate est v in
        if sw = 0 then None
        else begin
          (* concurrency slack: a freshly interposed ancestor can gain a
             descendant whose permit passed before it existed — at most one
             per in-flight request *)
          if e + 6 < sw then
            Alcotest.failf "node %d: distributed estimate %d below super-weight %d" v e sw;
          Some (float_of_int e /. float_of_int sw)
        end)
      (Dtree.live_nodes tree)
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean over-estimation %.2f bounded" (Stats.mean ratios))
    true
    (Stats.mean ratios < 4.0);
  Alcotest.(check bool) "epochs rotated" true (Sd.epochs est > 0)

let prop_dist_subtree =
  Helpers.qcheck ~count:6 "distributed estimates cover super-weights up to in-flight slack"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 2))
    (fun (seed, mix_idx) ->
      let mix = List.nth Workload.Mix.[ churn; grow_only; shrink_heavy ] mix_idx in
      let est, _, tree =
        drive_subtree_dist ~seed ~n0:35 ~changes:180 ~mix ~concurrency:5
      in
      (* up to one unit of slack per concurrently in-flight request *)
      List.for_all
        (fun v -> Sd.estimate est v + 5 >= Sd.super_weight est v)
        (Dtree.live_nodes tree))

(* --- distributed heavy-child (Theorem 5.4 over the simulator) ---------- *)

module Hd = Estimator.Heavy_child_dist

let drive_heavy_dist ~seed ~n0 ~changes ~mix =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
  let net = Net.create ~seed:(seed + 1) ~tree () in
  let hc = Hd.create ~net () in
  Controller.Dist_harness.drive ~concurrency:5 ~net ~requests:changes ~submit:(Hd.submit hc)
    ~on_answer:ignore (Workload.make ~seed:(seed + 2) ~mix ());
  Net.run net;
  (hc, tree)

let test_dist_heavy_pointers_and_bound () =
  let hc, tree =
    drive_heavy_dist ~seed:108 ~n0:90 ~changes:350 ~mix:Workload.Mix.churn
  in
  Dtree.iter_nodes tree ~f:(fun v ->
      match Hd.heavy hc v with
      | None ->
          if not (Dtree.is_leaf tree v) then
            Alcotest.failf "internal node %d lacks a heavy child" v
      | Some c ->
          if not (List.mem c (Dtree.children tree v)) then
            Alcotest.failf "mu(%d) = %d is not a child" v c);
  let sw_root =
    Estimator.Subtree_estimator_dist.super_weight (Hd.estimator hc) 0
  in
  let bound = 4.0 *. (log (float_of_int (max 2 sw_root)) /. log (4.0 /. 3.0)) in
  let worst = Hd.max_light_ancestors hc in
  Alcotest.(check bool)
    (Printf.sprintf "distributed light ancestors %d <= %.0f" worst bound)
    true
    (float_of_int worst <= bound)

let prop_dist_heavy =
  Helpers.qcheck ~count:5 "distributed light ancestors stay logarithmic"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 2))
    (fun (seed, mix_idx) ->
      let mix = List.nth Workload.Mix.[ churn; grow_only; shrink_heavy ] mix_idx in
      let hc, _ = drive_heavy_dist ~seed ~n0:45 ~changes:180 ~mix in
      let sw_root =
        Estimator.Subtree_estimator_dist.super_weight (Hd.estimator hc) 0
      in
      let bound = 4.0 *. (log (float_of_int (max 2 sw_root)) /. log (4.0 /. 3.0)) in
      float_of_int (Hd.max_light_ancestors hc) <= bound)

let suite =
  ( "heavy-child",
    [
      Alcotest.test_case "estimates cover super-weights" `Quick test_estimates_cover_super_weight;
      Alcotest.test_case "estimates grow with changes" `Quick test_estimates_grow_with_changes;
      Alcotest.test_case "heavy pointers valid" `Quick test_heavy_pointers_valid;
      Alcotest.test_case "light ancestors logarithmic" `Quick test_light_ancestors_logarithmic;
      Alcotest.test_case "path decomposition" `Quick test_heavy_points_to_heaviest_on_path;
      prop_light_bound;
      Alcotest.test_case "distributed estimates cover super-weights" `Quick
        test_dist_estimates_cover_sw;
      prop_dist_subtree;
      Alcotest.test_case "distributed heavy pointers and bound" `Quick
        test_dist_heavy_pointers_and_bound;
      prop_dist_heavy;
    ] )
