(* Section 5.4: routing, NCA and distance labeling extensions. *)

(* --- tree routing ------------------------------------------------------ *)

let tree_path tree src dst =
  (* ground truth: the path src -> dst via the LCA, excluding src *)
  let lca = Dtree.lowest_common_ancestor tree src dst in
  let rec climb_to_lca v acc =
    if v = lca then List.rev (v :: acc)
    else climb_to_lca (Option.get (Dtree.parent tree v)) (v :: acc)
  in
  let up_part =
    if src = lca then [] else climb_to_lca (Option.get (Dtree.parent tree src)) []
  in
  let rec below v acc =
    if v = lca then acc else below (Option.get (Dtree.parent tree v)) (v :: acc)
  in
  let down_part = below dst [] in
  up_part @ down_part

let check_routing tree tr ~samples ~rng =
  let nodes = Array.of_list (Dtree.live_nodes tree) in
  for _ = 1 to samples do
    let src = nodes.(Rng.int rng (Array.length nodes)) in
    let dst = nodes.(Rng.int rng (Array.length nodes)) in
    if src <> dst then begin
      let route = Estimator.Tree_routing.route tr ~src ~dst in
      let expected = tree_path tree src dst in
      if route <> expected then
        Alcotest.failf "route %d->%d: got [%s], expected [%s]" src dst
          (String.concat ";" (List.map string_of_int route))
          (String.concat ";" (List.map string_of_int expected))
    end
  done

let test_routing_static () =
  let rng = Rng.create ~seed:141 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 60) in
  let tr = Estimator.Tree_routing.create ~tree () in
  check_routing tree tr ~samples:300 ~rng

let test_routing_under_churn () =
  let rng = Rng.create ~seed:142 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 40) in
  let tr = Estimator.Tree_routing.create ~tree () in
  let wl = Workload.make ~seed:143 ~mix:Workload.Mix.churn () in
  for i = 1 to 250 do
    Estimator.Tree_routing.submit tr (Workload.next_op wl tree);
    if i mod 25 = 0 then check_routing tree tr ~samples:60 ~rng
  done;
  Alcotest.(check bool) "addresses stay short" true
    (Estimator.Tree_routing.address_bits tr
    <= (2 * Stats.ceil_log2 (max 2 (Dtree.size tree))) + 14)

let test_routing_hop_count () =
  let rng = Rng.create ~seed:144 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 50) in
  let tr = Estimator.Tree_routing.create ~tree () in
  let leaf = List.hd (Dtree.leaves tree) in
  let hops = List.length (Estimator.Tree_routing.route tr ~src:leaf ~dst:(Dtree.root tree)) in
  Alcotest.(check int) "stretch 1 on a path" 49 hops

let prop_routing =
  Helpers.qcheck ~count:12 "routing exact under all mixes"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 2))
    (fun (seed, mix_idx) ->
      let mix = List.nth Workload.Mix.[ churn; grow_only; shrink_heavy ] mix_idx in
      let rng = Rng.create ~seed in
      let tree = Workload.Shape.build rng (Workload.Shape.Random 25) in
      let tr = Estimator.Tree_routing.create ~tree () in
      let wl = Workload.make ~seed:(seed + 1) ~mix () in
      for _ = 1 to 120 do
        Estimator.Tree_routing.submit tr (Workload.next_op wl tree)
      done;
      check_routing tree tr ~samples:100 ~rng;
      true)

(* --- NCA labeling ------------------------------------------------------ *)

let check_nca tree nl ~samples ~rng =
  let nodes = Array.of_list (Dtree.live_nodes tree) in
  for _ = 1 to samples do
    let u = nodes.(Rng.int rng (Array.length nodes)) in
    let v = nodes.(Rng.int rng (Array.length nodes)) in
    let got = Estimator.Nca_labeling.nca nl u v in
    let expected = Dtree.lowest_common_ancestor tree u v in
    if got <> expected then Alcotest.failf "nca(%d,%d) = %d, expected %d" u v got expected
  done

let test_nca_static () =
  let rng = Rng.create ~seed:151 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 80) in
  let nl = Estimator.Nca_labeling.create ~tree () in
  check_nca tree nl ~samples:400 ~rng

let test_nca_under_leaf_dynamics () =
  let rng = Rng.create ~seed:152 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 40) in
  let nl = Estimator.Nca_labeling.create ~tree () in
  let wl =
    Workload.make ~seed:153
      ~mix:
        {
          Workload.Mix.add_leaf = 0.5;
          remove_leaf = 0.5;
          add_internal = 0.0;
          remove_internal = 0.0;
          non_topological = 0.0;
        }
      ()
  in
  let before = Estimator.Nca_labeling.relabels nl in
  for i = 1 to 300 do
    Estimator.Nca_labeling.submit nl (Workload.next_op wl tree);
    if i mod 30 = 0 then check_nca tree nl ~samples:80 ~rng
  done;
  (* leaf dynamics are incremental: relabels come only from epoch rotations,
     at least ~budget/2 = n/4 granted changes apart *)
  Alcotest.(check bool) "relabels bounded by epoch rotations" true
    (Estimator.Nca_labeling.relabels nl - before <= 40)

let test_nca_internal_ops_relabel () =
  let rng = Rng.create ~seed:154 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 30) in
  let nl = Estimator.Nca_labeling.create ~tree () in
  let wl = Workload.make ~seed:155 ~mix:Workload.Mix.churn () in
  for i = 1 to 200 do
    Estimator.Nca_labeling.submit nl (Workload.next_op wl tree);
    if i mod 20 = 0 then check_nca tree nl ~samples:60 ~rng
  done

let test_nca_label_size () =
  (* log^2 n bits: the heavy-path bound keeps entry counts logarithmic *)
  let rng = Rng.create ~seed:156 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 512) in
  let nl = Estimator.Nca_labeling.create ~tree () in
  let worst =
    List.fold_left
      (fun acc v -> max acc (Estimator.Nca_labeling.label_entries nl v))
      0 (Dtree.live_nodes tree)
  in
  Alcotest.(check bool)
    (Printf.sprintf "entries %d <= log2 n + 1 = %d" worst (Stats.ceil_log2 512 + 1))
    true
    (worst <= Stats.ceil_log2 512 + 1)

(* --- distance labeling -------------------------------------------------- *)

let ground_distance tree u v =
  let lca = Dtree.lowest_common_ancestor tree u v in
  Dtree.depth tree u + Dtree.depth tree v - (2 * Dtree.depth tree lca)

let check_distances tree dl ~samples ~rng =
  let nodes = Array.of_list (Dtree.live_nodes tree) in
  for _ = 1 to samples do
    let u = nodes.(Rng.int rng (Array.length nodes)) in
    let v = nodes.(Rng.int rng (Array.length nodes)) in
    let got = Estimator.Distance_labeling.dist dl u v in
    let expected = ground_distance tree u v in
    if got <> expected then Alcotest.failf "dist(%d,%d) = %d, expected %d" u v got expected
  done

let test_distance_static () =
  let rng = Rng.create ~seed:161 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 70) in
  let dl = Estimator.Distance_labeling.create ~tree () in
  check_distances tree dl ~samples:400 ~rng

let test_distance_under_shrink () =
  let rng = Rng.create ~seed:162 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 120) in
  let dl = Estimator.Distance_labeling.create ~tree () in
  let bits_before = Estimator.Distance_labeling.max_label_bits dl in
  (* delete leaves until the tree is a fraction of its size *)
  let deleted = ref 0 in
  while Dtree.size tree > 20 do
    (match Dtree.leaves tree with
    | leaf :: _ when leaf <> Dtree.root tree ->
        Estimator.Distance_labeling.submit dl (Workload.Remove_leaf leaf);
        incr deleted
    | _ -> failwith "no removable leaf");
    if !deleted mod 20 = 0 then check_distances tree dl ~samples:50 ~rng
  done;
  check_distances tree dl ~samples:100 ~rng;
  Alcotest.(check bool) "relabeled as it shrank" true
    (Estimator.Distance_labeling.relabels dl >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "labels shrank: %d -> %d bits" bits_before
       (Estimator.Distance_labeling.max_label_bits dl))
    true
    (Estimator.Distance_labeling.max_label_bits dl < bits_before)

let test_distance_rejects_growth () =
  let rng = Rng.create ~seed:163 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 20) in
  let dl = Estimator.Distance_labeling.create ~tree () in
  Alcotest.check_raises "additions out of scope" (Invalid_argument "") (fun () ->
      try Estimator.Distance_labeling.submit dl (Workload.Add_leaf (Dtree.root tree))
      with Invalid_argument _ -> raise (Invalid_argument ""))

let prop_distance_labels =
  Helpers.qcheck ~count:6 "separator labels are exact"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 3))
    (fun (seed, shape_idx) ->
      let shape = List.nth Helpers.shapes_small shape_idx in
      let rng = Rng.create ~seed in
      let tree = Workload.Shape.build rng shape in
      let dl = Estimator.Distance_labeling.create ~tree () in
      check_distances tree dl ~samples:150 ~rng;
      true)

let suite =
  ( "labeling-schemes",
    [
      Alcotest.test_case "routing: static exactness" `Quick test_routing_static;
      Alcotest.test_case "routing: exact under churn" `Quick test_routing_under_churn;
      Alcotest.test_case "routing: stretch 1" `Quick test_routing_hop_count;
      prop_routing;
      Alcotest.test_case "nca: static exactness" `Quick test_nca_static;
      Alcotest.test_case "nca: incremental leaf dynamics" `Quick test_nca_under_leaf_dynamics;
      Alcotest.test_case "nca: internal ops relabel" `Quick test_nca_internal_ops_relabel;
      Alcotest.test_case "nca: label entries logarithmic" `Quick test_nca_label_size;
      Alcotest.test_case "distance: static exactness" `Quick test_distance_static;
      Alcotest.test_case "distance: shrink keeps labels small" `Quick test_distance_under_shrink;
      Alcotest.test_case "distance: growth out of scope" `Quick test_distance_rejects_growth;
      prop_distance_labels;
    ] )
