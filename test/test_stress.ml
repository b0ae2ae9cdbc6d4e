(* Failure injection and adversarial stress for the distributed stack. *)

open Controller

let run_dist ~seed ~max_delay ~concurrency ~shape ~mix ~m ~w ~requests =
  Dist_harness.run ~seed ~max_delay ~concurrency ~shape ~mix ~m ~w ~requests ()

let test_extreme_delays () =
  (* an adversary stretching every link delay up to 200x must change nothing
     about outcomes, only timing *)
  let base =
    run_dist ~seed:191 ~max_delay:1 ~concurrency:8
      ~shape:(Workload.Shape.Random 60) ~mix:Workload.Mix.churn ~m:100 ~w:20
      ~requests:250
  in
  let slow =
    run_dist ~seed:191 ~max_delay:200 ~concurrency:8
      ~shape:(Workload.Shape.Random 60) ~mix:Workload.Mix.churn ~m:100 ~w:20
      ~requests:250
  in
  Alcotest.(check int) "all answered (fast)" 250
    (base.Dist_harness.granted + base.Dist_harness.rejected);
  Alcotest.(check int) "all answered (slow)" 250
    (slow.Dist_harness.granted + slow.Dist_harness.rejected);
  Alcotest.(check bool) "safety under both" true
    (base.Dist_harness.granted <= 100 && slow.Dist_harness.granted <= 100);
  Alcotest.(check bool) "liveness under both" true
    (base.Dist_harness.granted >= 80 && slow.Dist_harness.granted >= 80)

let test_request_storm_single_node () =
  (* every request targets the same deep leaf: the lock queue serializes *)
  let rng = Rng.create ~seed:192 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 200) in
  let net = Net.create ~seed:193 ~tree () in
  (* W large relative to U keeps psi small and phi = 2: the geometry that
     caches permits near the storm *)
  let params = Params.make ~m:3000 ~w:3000 ~u:700 in
  let d = Dist.create ~params ~net () in
  let leaf = List.hd (Dtree.leaves tree) in
  let answered = ref 0 in
  for _ = 1 to 300 do
    Dist.submit d (Workload.Non_topological leaf) ~k:(fun _ -> incr answered)
  done;
  Net.run net;
  Alcotest.(check int) "all 300 answered" 300 !answered;
  Alcotest.(check int) "all granted" 300 (Dist.granted d);
  Alcotest.(check int) "no locks left" 0 (Dist.locked_count d);
  (* amortization: far below the naive scheme's two-way root walk per
     request (the agent's own four-trip discipline would cost ~4x that) *)
  Alcotest.(check bool)
    (Printf.sprintf "messages %d amortize below 300 two-way root walks" (Net.messages net))
    true
    (Net.messages net < 300 * 2 * 199)

let test_total_annihilation () =
  (* delete everything except the root, then rebuild, repeatedly *)
  let tree = Dtree.create () in
  let ctrl = Adaptive.create ~m:4000 ~w:200 ~tree () in
  let rng = Rng.create ~seed:194 in
  for _round = 1 to 3 do
    (* grow to ~100 nodes *)
    while Dtree.size tree < 100 do
      let parent = Rng.pick rng (Dtree.live_nodes tree) in
      ignore (Adaptive.request ctrl (Workload.Add_leaf parent))
    done;
    (* tear it all down *)
    while Dtree.size tree > 1 do
      let victim =
        List.find (fun v -> v <> Dtree.root tree) (Dtree.leaves tree)
      in
      ignore (Adaptive.request ctrl (Workload.Remove_leaf victim))
    done;
    Dtree.check tree
  done;
  Alcotest.(check int) "back to the root alone" 1 (Dtree.size tree);
  Alcotest.(check bool) "within budget" true (Adaptive.granted ctrl <= 4000)

let test_deep_path_domain_invariants () =
  (* multi-level package geometry on a deep path with deep-biased requests:
     the strongest exercise of the Section 3.2 invariants *)
  let rng = Rng.create ~seed:195 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 800) in
  let u = 1600 in
  let params = Params.make ~m:100_000 ~w:u ~u in
  let c, tracker = Helpers.central_with_domains ~params ~tree in
  let wl = Workload.make ~seed:196 ~deep_bias:true ~mix:Workload.Mix.churn () in
  Alcotest.(check bool) "multi-level geometry in play" true
    (2 * params.Params.psi < 799);
  for _ = 1 to 400 do
    ignore (Central.request c (Workload.next_op wl tree));
    Helpers.expect_domains tracker
  done

let test_dist_deep_path_churn () =
  let stats =
    run_dist ~seed:197 ~max_delay:8 ~concurrency:12
      ~shape:(Workload.Shape.Caterpillar 400) ~mix:Workload.Mix.shrink_heavy
      ~m:3000 ~w:300 ~requests:350
  in
  Alcotest.(check int) "all answered" 350
    (stats.Dist_harness.granted + stats.Dist_harness.rejected);
  Alcotest.(check int) "nothing refused (ample budget)" 350 stats.Dist_harness.granted

let prop_delay_independence =
  Helpers.qcheck ~count:6 "safety/liveness independent of delay adversary"
    QCheck2.Gen.(triple (int_range 0 9999) (int_range 1 60) (int_range 1 4))
    (fun (seed, max_delay, conc) ->
      let m = 80 and w = 16 in
      let stats =
        run_dist ~seed ~max_delay ~concurrency:(2 * conc)
          ~shape:(Workload.Shape.Random 40) ~mix:Workload.Mix.churn ~m ~w
          ~requests:200
      in
      stats.Dist_harness.granted <= m
      && stats.Dist_harness.granted + stats.Dist_harness.rejected = 200
      && (stats.Dist_harness.rejected = 0 || stats.Dist_harness.granted >= m - w))

let test_hotspot_churn () =
  (* all traffic concentrated in one subtree of a larger network *)
  let rng = Rng.create ~seed:210 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 150) in
  let hotspot =
    List.fold_left
      (fun best v ->
        if Dtree.subtree_size tree v > Dtree.subtree_size tree best && v <> Dtree.root tree
        then v
        else best)
      (List.hd (Dtree.internal_nodes tree))
      (Dtree.internal_nodes tree)
  in
  let net = Net.create ~seed:211 ~tree () in
  let params = Params.make ~m:2000 ~w:400 ~u:(150 + 300) in
  let d = Dist.create ~params ~net () in
  let answered = ref 0 in
  Dist_harness.drive ~concurrency:8 ~net ~requests:300 ~submit:(Dist.submit d)
    ~on_answer:(fun _ -> incr answered)
    (Workload.make ~seed:212 ~within:hotspot ~mix:Workload.Mix.churn ());
  Net.run net;
  Dtree.check tree;
  Alcotest.(check int) "all answered" 300 !answered;
  Alcotest.(check int) "no locks left" 0 (Dist.locked_count d)

(* The locking discipline's structural invariant, checked at every single
   simulation step of a churn-heavy concurrent run. *)
let test_lock_chains_every_step () =
  let rng = Rng.create ~seed:198 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 80) in
  let net = Net.create ~seed:199 ~max_delay:6 ~tree () in
  let params = Params.make ~m:2000 ~w:200 ~u:(80 + 250) in
  let d = Dist.create ~params ~net () in
  Dist_harness.drive ~concurrency:10 ~net ~requests:250 ~submit:(Dist.submit d)
    ~on_answer:ignore
    (Workload.make ~seed:200 ~mix:Workload.Mix.churn ());
  let steps = ref 0 in
  while Net.step net do
    incr steps;
    match Dist.check_locks d with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "step %d: lock invariant violated: %s" !steps msg
  done;
  Alcotest.(check int) "all answered" 250 (Dist.granted d + Dist.rejected d);
  Alcotest.(check int) "no locks left" 0 (Dist.locked_count d)

let suite =
  ( "stress",
    [
      Alcotest.test_case "extreme link delays" `Quick test_extreme_delays;
      Alcotest.test_case "request storm at one node" `Quick test_request_storm_single_node;
      Alcotest.test_case "grow and annihilate cycles" `Quick test_total_annihilation;
      Alcotest.test_case "deep-path domain invariants" `Quick test_deep_path_domain_invariants;
      Alcotest.test_case "deep caterpillar deletion churn" `Quick test_dist_deep_path_churn;
      prop_delay_independence;
      Alcotest.test_case "hotspot subtree churn" `Quick test_hotspot_churn;
      Alcotest.test_case "lock chains at every step" `Quick test_lock_chains_every_step;
    ] )
