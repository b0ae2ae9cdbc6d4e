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

(* Theorem 5.4's rule, read off the live tree: every internal node points at
   one of its children of the largest current estimate, and a leaf points
   nowhere. Returns the first node that breaks it. *)
let argmax_violation hc tree =
  let est = Estimator.Subtree_estimator.estimate (Estimator.Heavy_child.estimator hc) in
  Dtree.fold_dfs tree ~init:None ~f:(fun found v ->
      if Option.is_some found then found
      else
        let best = Dtree.fold_children tree v ~init:min_int ~f:(fun m c -> max m (est c)) in
        match (Estimator.Heavy_child.heavy hc v, Dtree.is_leaf tree v) with
        | None, true -> None
        | None, false -> Some (Printf.sprintf "internal node %d has no heavy child" v)
        | Some c, true -> Some (Printf.sprintf "leaf %d points at %d" v c)
        | Some c, false ->
            if not (List.mem c (Dtree.children tree v)) then
              Some (Printf.sprintf "mu(%d) = %d is not a child" v c)
            else if est c <> best then
              Some (Printf.sprintf "mu(%d) = %d has estimate %d, a sibling has %d" v c
                   (est c) best)
            else None)

let prop_heavy_argmax =
  Helpers.qcheck ~count:10 "heavy pointer is an argmax after every change"
    QCheck2.Gen.(int_range 0 9999)
    (fun seed ->
      List.iter
        (fun shape ->
          List.iter
            (fun (mix_name, mix) ->
              let rng = Rng.create ~seed in
              let tree = Workload.Shape.build rng shape in
              let hc = Estimator.Heavy_child.create ~tree () in
              let wl = Workload.make ~seed:(seed + 1) ~mix () in
              for i = 1 to 200 do
                Estimator.Heavy_child.submit hc (Workload.next_op wl tree);
                Option.iter
                  (QCheck2.Test.fail_reportf "%s, %s, change %d: %s"
                     (Workload.Shape.name shape) mix_name i)
                  (argmax_violation hc tree)
              done;
              let epochs = Estimator.Heavy_child.epochs hc in
              if epochs < 2 then
                QCheck2.Test.fail_reportf "%s, %s: %d epoch rebuilds, want at least 2"
                  (Workload.Shape.name shape) mix_name epochs)
            Workload.Mix.[ ("churn", churn); ("grow-only", grow_only); ("shrink-heavy", shrink_heavy) ])
        Workload.Shape.[ Random 40; Star 40; Balanced (2, 40); Caterpillar 40; Path 40 ];
      true)

(* --- epoch start: omega_0 and SW reseeded to live subtree sizes -------- *)

module Core = Estimator.Subtree_core

(* The first live node whose estimate or super-weight is not [size v]. *)
let seed_violation core tree ~size =
  Dtree.fold_dfs tree ~init:None ~f:(fun found v ->
      match found with
      | Some _ -> found
      | None ->
          let want = size v and e = Core.estimate core v and sw = Core.super_weight core v in
          if e = want && sw = want then None
          else Some (Printf.sprintf "node %d: estimate %d, super-weight %d, subtree size %d" v e sw want))

(* Churn a random tree through the counters (stale estimates, permits and
   super-weights left behind), then start an epoch. Internal insertions
   give parents larger ids than their children, so no id order is a
   bottom-up order. *)
let prop_epoch_seeds_subtree_sizes =
  Helpers.qcheck ~count:10 "epoch start seeds every estimate with its subtree size"
    QCheck2.Gen.(int_range 0 9999)
    (fun seed ->
      let rng = Rng.create ~seed in
      let tree = Workload.Shape.build rng (Workload.Shape.Random 150) in
      let core = Core.create ~on_change:ignore ~tree in
      Core.start_epoch core;
      let wl = Workload.make ~seed:(seed + 1) ~mix:Workload.Mix.churn () in
      for _ = 1 to 400 do
        let info = Workload.apply_info tree (Workload.next_op wl tree) in
        Core.note_applied core info;
        Core.observe core ~node:(Dtree.any_leaf tree) ~size:(1 + Rng.int rng 5)
      done;
      let inverted =
        List.exists (fun v -> Dtree.parent_id tree v > v) (Dtree.live_nodes tree)
      in
      if not inverted then QCheck2.Test.fail_report "no parent holds a larger id than its child";
      Core.start_epoch core;
      match seed_violation core tree ~size:(Dtree.subtree_size tree) with
      | None -> true
      | Some msg -> QCheck2.Test.fail_report msg)

(* A 100,000-node path: a recursive or closure-per-node walk would blow the
   stack or the budget here. Node [v] at depth [d] roots [n - d] nodes. *)
let test_epoch_seeds_long_path () =
  let n = 100_000 in
  let tree = Workload.Shape.build (Rng.create ~seed:7) (Workload.Shape.Path n) in
  let core = Core.create ~on_change:ignore ~tree in
  Core.start_epoch core;
  Core.observe core ~node:(Dtree.any_leaf tree) ~size:3;
  Core.start_epoch core;
  let depth = Array.make (Dtree.ever_created tree) (-1) in
  Dtree.fold_dfs_depth tree ~init:() ~f:(fun () v d -> depth.(v) <- d);
  Option.iter (fun msg -> Alcotest.fail msg) (seed_violation core tree ~size:(fun v -> n - depth.(v)))

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

let suite =
  ( "heavy-child",
    [
      Alcotest.test_case "estimates cover super-weights" `Quick test_estimates_cover_super_weight;
      Alcotest.test_case "estimates grow with changes" `Quick test_estimates_grow_with_changes;
      Alcotest.test_case "heavy pointers valid" `Quick test_heavy_pointers_valid;
      Alcotest.test_case "light ancestors logarithmic" `Quick test_light_ancestors_logarithmic;
      Alcotest.test_case "path decomposition" `Quick test_heavy_points_to_heaviest_on_path;
      prop_light_bound;
      prop_heavy_argmax;
      prop_epoch_seeds_subtree_sizes;
      Alcotest.test_case "epoch start on a 100,000-node path" `Quick test_epoch_seeds_long_path;
      Alcotest.test_case "distributed estimates cover super-weights" `Quick
        test_dist_estimates_cover_sw;
      prop_dist_subtree;
    ] )
