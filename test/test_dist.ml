open Controller

let test_single_deep_request () =
  let rng = Rng.create ~seed:61 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 300) in
  let net = Net.create ~seed:62 ~tree () in
  let params = Params.make ~m:10000 ~w:600 ~u:600 in
  let d = Dist.create ~params ~net () in
  let leaf = List.hd (Dtree.leaves tree) in
  let result = ref None in
  Dist.submit d (Workload.Non_topological leaf) ~k:(fun o -> result := Some o);
  Net.run net;
  Alcotest.(check (option Helpers.outcome)) "granted" (Some Types.Granted) !result;
  Alcotest.(check int) "no locks left" 0 (Dist.locked_count d);
  (* The agent travels at most 4x the depth plus the package moves. *)
  Alcotest.(check bool)
    (Printf.sprintf "messages %d within 6x depth" (Net.messages net))
    true
    (Net.messages net <= 6 * 299);
  Alcotest.(check bool)
    (Printf.sprintf "message size %d = O(log N)" (Net.max_message_bits net))
    true
    (Net.max_message_bits net <= 8 * Stats.ceil_log2 600)

let test_static_reuse_no_messages () =
  let rng = Rng.create ~seed:63 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 100) in
  let net = Net.create ~seed:64 ~tree () in
  let u = 200 in
  let params = Params.make ~m:4000 ~w:(4 * u) ~u in
  let d = Dist.create ~params ~net () in
  let leaf = List.hd (Dtree.leaves tree) in
  Dist.submit d (Workload.Non_topological leaf) ~k:ignore;
  Net.run net;
  let m1 = Net.messages net in
  Dist.submit d (Workload.Non_topological leaf) ~k:ignore;
  Net.run net;
  Alcotest.(check int) "static grant sends no messages" m1 (Net.messages net);
  Alcotest.(check int) "both granted" 2 (Dist.granted d)

let test_concurrent_churn () =
  let stats =
    Dist_harness.run ~seed:65 ~concurrency:12 ~shape:(Workload.Shape.Random 120)
      ~mix:Workload.Mix.churn ~m:5000 ~w:500 ~requests:300 ()
  in
  Alcotest.(check int) "all answered" 300
    (stats.Dist_harness.granted + stats.Dist_harness.rejected);
  Alcotest.(check int) "all granted (budget ample)" 300 stats.Dist_harness.granted

let test_safety_liveness_under_exhaustion () =
  let m = 120 and w = 40 in
  let stats =
    Dist_harness.run ~seed:66 ~concurrency:10 ~shape:(Workload.Shape.Random 80)
      ~mix:Workload.Mix.churn ~m ~w ~requests:400 ()
  in
  Alcotest.(check bool) "safety" true (stats.Dist_harness.granted <= m);
  Alcotest.(check bool) "rejections happened" true (stats.Dist_harness.rejected > 0);
  Alcotest.(check bool)
    (Printf.sprintf "liveness: %d >= M - W = %d" stats.Dist_harness.granted (m - w))
    true
    (stats.Dist_harness.granted >= m - w)

(* A [`Hold] controller never rejects: an exhausted request goes
   unanswered, and applying each granted change is the caller's part. *)
let test_hold_mode () =
  let m = 50 and requests = 200 in
  let tree = Workload.Shape.build (Rng.create ~seed:67) (Workload.Shape.Random 60) in
  let net = Net.create ~seed:68 ~max_delay:8 ~tree () in
  let d =
    Dist.create
      ~config:{ Dist.default_config with exhaustion = `Hold }
      ~params:(Params.make ~m ~w:10 ~u:(60 + requests))
      ~net ()
  in
  let submit op ~k =
    Dist.submit d op ~k:(function
      | Types.Granted -> Dist.apply d op ~k:(fun _ -> k Types.Granted)
      | outcome -> k outcome)
  in
  let g, r, u =
    Dist_harness.run_on ~seed:67 ~concurrency:6 ~net ~mix:Workload.Mix.churn ~requests
      ~submit ()
  in
  Alcotest.(check int) "never rejects" 0 r;
  Alcotest.(check bool) "some unanswered" true (u > 0);
  Alcotest.(check int) "all answered" requests (g + r + u);
  Alcotest.(check bool) "safety" true (g <= m);
  Dtree.check tree;
  Alcotest.(check int) "no locks left" 0 (Dist.locked_count d)

(* A [`Hold] grant whose removal another agent's lock blocks (Appendix A's
   second controller over the same tree): the pending application keeps
   the granting controller outstanding until it applies, exactly once, and
   its continuation sees the change. *)
let test_blocked_apply_stays_outstanding () =
  let tree = Workload.Shape.build (Rng.create ~seed:5) (Workload.Shape.Path 6) in
  let net = Net.create ~seed:6 ~tree () in
  let hold name =
    Dist.create
      ~config:{ Dist.default_config with exhaustion = `Hold; name }
      ~params:(Params.make ~m:100 ~w:10 ~u:20)
      ~net ()
  in
  let d = hold "main" and other = hold "other" in
  let leaf = Dtree.any_leaf tree in
  let parent = Option.get (Dtree.parent tree leaf) in
  let op = Workload.Remove_leaf leaf in
  let answer = ref None in
  Dist.submit d op ~k:(fun o -> answer := Some o);
  Net.run net;
  Alcotest.(check (option Helpers.outcome)) "granted" (Some Types.Granted) !answer;
  Alcotest.(check bool) "hold mode leaves the change to the caller" true (Dtree.live tree leaf);
  Dist.submit other (Workload.Non_topological leaf) ~k:ignore;
  while Dist.locked_count other = 0 && Net.step net do
    ()
  done;
  let changes = ref [] in
  Dist.apply ~partner:other d op ~k:(fun change -> changes := change :: !changes);
  Alcotest.(check int) "blocked: nothing applied" 0 (List.length !changes);
  while !changes = [] && Net.step net do
    if !changes = [] then Alcotest.(check int) "outstanding while blocked" 1 (Dist.outstanding d)
  done;
  Net.run net;
  Alcotest.(check int) "applied once" 1 (List.length !changes);
  Alcotest.(check bool) "k sees the removal" true
    (!changes = [ Workload.Leaf_removed { node = leaf; parent } ]);
  Alcotest.(check bool) "leaf gone" false (Dtree.live tree leaf);
  Alcotest.(check int) "nothing outstanding" 0 (Dist.outstanding d)

let test_tree_stays_valid () =
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      let tree = Workload.Shape.build rng (Workload.Shape.Random 60) in
      let net = Net.create ~seed:(seed + 1) ~max_delay:5 ~tree () in
      let params = Params.make ~m:2000 ~w:200 ~u:(60 + 200) in
      let d = Dist.create ~params ~net () in
      let g, r, _ =
        Dist_harness.run_on ~seed ~concurrency:16 ~net ~mix:Workload.Mix.shrink_heavy
          ~requests:200 ~submit:(Dist.submit d) ()
      in
      Dtree.check tree;
      Alcotest.(check int) "all answered" 200 (g + r);
      Alcotest.(check int) "no locks left" 0 (Dist.locked_count d))
    [ 101; 202; 303 ]

(* With concurrency 1 and an ample budget, the distributed execution
   serializes and must produce exactly the centralized controller's data
   structures: the same grants, the same tree, and identical package
   placement (Lemma 4.5's simulation argument, checked end to end). *)
let prop_serialized_matches_centralized =
  Helpers.qcheck ~count:25 "serialized distributed == centralized"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 2))
    (fun (seed, mix_idx) ->
      let mix = List.nth Workload.Mix.[ churn; grow_only; shrink_heavy ] mix_idx in
      let requests = 150 in
      let m = 100_000 and w = 500 in
      (* centralized run *)
      let rng = Rng.create ~seed in
      let tree_c = Workload.Shape.build rng (Workload.Shape.Random 40) in
      let u = Dtree.size tree_c + requests in
      let cc = Central.create ~params:(Params.make ~m ~w ~u) ~tree:tree_c () in
      let wl_c = Workload.make ~seed:(seed + 7) ~mix () in
      for _ = 1 to requests do
        ignore (Central.request cc (Workload.next_op wl_c tree_c))
      done;
      let central_snapshot =
        Central.fold_stores cc ~init:[] ~f:(fun acc v s ->
            let levels =
              List.sort compare
                (List.map (fun (p : Controller.Package.t) -> p.level) (Store.mobiles s))
            in
            if levels = [] && Store.static s = 0 then acc
            else (v, levels, Store.static s) :: acc)
        |> List.sort compare
      in
      (* distributed run, concurrency 1, same seeds *)
      let rng = Rng.create ~seed in
      let tree_d = Workload.Shape.build rng (Workload.Shape.Random 40) in
      let net = Net.create ~seed:(seed + 1) ~tree:tree_d () in
      let dd = Dist.create ~params:(Params.make ~m ~w ~u) ~net () in
      let g, r, _ =
        Dist_harness.run_on ~seed ~concurrency:1 ~net ~mix ~requests
          ~submit:(Dist.submit dd) ()
      in
      Central.granted cc = g
      && Central.rejected cc = r
      && Dtree.size tree_c = Dtree.size tree_d
      && Central.storage cc = Dist.storage dd
      && central_snapshot = Dist.snapshot dd)

let prop_concurrent_safety_liveness =
  Helpers.qcheck ~count:20 "concurrent safety and liveness"
    QCheck2.Gen.(triple (int_range 0 9999) (int_range 10 200) (int_range 0 40))
    (fun (seed, m, w) ->
      let stats =
        Dist_harness.run ~seed ~concurrency:8 ~shape:(Workload.Shape.Random 50)
          ~mix:Workload.Mix.churn ~m ~w ~requests:(2 * (m + 20)) ()
      in
      stats.Dist_harness.granted <= m
      && (stats.Dist_harness.rejected = 0 || stats.Dist_harness.granted >= m - w))

(* Permit conservation in the distributed controller: at quiescence,
   storage + whiteboard permits + grants = M (no wave consumed permits). *)
let prop_permit_conservation =
  Helpers.qcheck ~count:20 "permit conservation at quiescence"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 20 200))
    (fun (seed, m) ->
      let rng = Rng.create ~seed in
      let tree = Workload.Shape.build rng (Workload.Shape.Random 50) in
      let net = Net.create ~seed:(seed + 1) ~tree () in
      let params = Params.make ~m ~w:(max 1 (m / 4)) ~u:(50 + 150) in
      let d = Dist.create ~params ~net () in
      let g, r, _ =
        Dist_harness.run_on ~seed ~concurrency:6 ~net ~mix:Workload.Mix.churn
          ~requests:150 ~submit:(Dist.submit d) ()
      in
      ignore r;
      Dist.granted d = g && Dist.granted d + Dist.leftover d = m)

(* Deep paths exercise multi-level packages (j >= 2): the serialized
   equivalence must hold there too, where Proc actually splits. *)
let test_deep_path_equivalence () =
  let requests = 120 in
  let m = 1_000_000 and w = 4000 in
  let build () =
    let rng = Rng.create ~seed:169 in
    Workload.Shape.build rng (Workload.Shape.Path 900)
  in
  let tree_c = build () in
  let u = Dtree.size tree_c + requests in
  let params = Params.make ~m ~w ~u in
  Alcotest.(check bool) "multi-level geometry in play" true
    (2 * params.Params.psi < 899);
  let cc = Central.create ~params ~tree:tree_c () in
  let wl_c = Workload.make ~seed:170 ~deep_bias:true ~mix:Workload.Mix.churn () in
  for _ = 1 to requests do
    ignore (Central.request cc (Workload.next_op wl_c tree_c))
  done;
  let central_snapshot =
    Central.fold_stores cc ~init:[] ~f:(fun acc v s ->
        let levels =
          List.sort compare
            (List.map (fun (p : Controller.Package.t) -> p.level) (Store.mobiles s))
        in
        if levels = [] && Store.static s = 0 then acc else (v, levels, Store.static s) :: acc)
    |> List.sort compare
  in
  Alcotest.(check bool) "packages above level 0 exist" true
    (List.exists (fun (_, levels, _) -> List.exists (fun l -> l >= 1) levels)
       central_snapshot);
  let tree_d = build () in
  let net = Net.create ~seed:171 ~tree:tree_d () in
  let dd = Dist.create ~params:(Params.make ~m ~w ~u) ~net () in
  (* same generator; concurrency 1 serializes *)
  let wl_d = Workload.make ~seed:170 ~deep_bias:true ~mix:Workload.Mix.churn () in
  let count = ref 0 in
  let rec pump () =
    if !count < requests then begin
      incr count;
      Dist.submit dd (Workload.next_op wl_d tree_d) ~k:(fun _ -> pump ())
    end
  in
  pump ();
  Net.run net;
  Alcotest.(check int) "same grants" (Central.granted cc) (Dist.granted dd);
  Alcotest.(check bool) "identical multi-level package placement" true
    (central_snapshot = Dist.snapshot dd)

let test_memory_bound () =
  let stats =
    Dist_harness.run ~seed:68 ~concurrency:8 ~shape:(Workload.Shape.Random 100)
      ~mix:Workload.Mix.churn ~m:2000 ~w:400 ~requests:300 ()
  in
  let n = 400 and u = 400 in
  let log_n = Stats.ceil_log2 n and log_u = Stats.ceil_log2 u in
  (* Claim 4.8: O(deg(v) log N + log^3 N + log^2 U) bits; deg <= n. *)
  let bound = (16 * log_n * log_n * log_n) + (16 * log_u * log_u) + (16 * n * log_n) in
  Alcotest.(check bool)
    (Printf.sprintf "max whiteboard %d within bound %d" stats.Dist_harness.max_wb_bits bound)
    true
    (stats.Dist_harness.max_wb_bits <= bound)

(* The whiteboard column starts empty and grows on demand: an agent born at
   a node id far past any initial capacity still grants, leaving its static
   remainder on that node's whiteboard. *)
let test_far_node_id () =
  let rng = Rng.create ~seed:69 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 3000) in
  let net = Net.create ~seed:70 ~tree () in
  let u = 4000 in
  let m = 1_000_000 in
  let d = Dist.create ~params:(Params.make ~m ~w:(4 * u) ~u) ~net () in
  let leaf = List.hd (Dtree.leaves tree) in
  Alcotest.(check bool) "leaf id far past 64" true (leaf >= 2048);
  let result = ref None in
  Dist.submit d (Workload.Non_topological leaf) ~k:(fun o -> result := Some o);
  Net.run net;
  Alcotest.(check (option Helpers.outcome)) "granted" (Some Types.Granted) !result;
  let named = List.map (fun (v, _, _) -> v) (Dist.snapshot d) in
  Alcotest.(check bool) "leaf keeps its static remainder" true (List.mem leaf named);
  Alcotest.(check (list int)) "ascending node order" (List.sort Int.compare named) named;
  Alcotest.(check int) "conservation" m (Dist.granted d + Dist.leftover d);
  Alcotest.(check int) "no locks left" 0 (Dist.locked_count d)

(* A deleted node's whiteboard is absorbed by its parent and its slot
   cleared: no snapshot names the dead node, and it has no whiteboard. *)
let test_removal_clears_whiteboard () =
  let rng = Rng.create ~seed:75 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 300) in
  let net = Net.create ~seed:76 ~tree () in
  let u = 600 in
  let d = Dist.create ~params:(Params.make ~m:100000 ~w:(4 * u) ~u) ~net () in
  let leaf = List.hd (Dtree.leaves tree) in
  let serve op =
    let result = ref None in
    Dist.submit d op ~k:(fun o -> result := Some o);
    Net.run net;
    Alcotest.(check (option Helpers.outcome)) "granted" (Some Types.Granted) !result
  in
  serve (Workload.Non_topological leaf);
  serve (Workload.Remove_leaf leaf);
  let internal =
    List.find_map
      (fun (v, _, _) ->
        if v <> Dtree.root tree && not (Dtree.is_leaf tree v) then Some v else None)
      (Dist.snapshot d)
    |> Option.get
  in
  serve (Workload.Remove_internal internal);
  let named = List.map (fun (v, _, _) -> v) (Dist.snapshot d) in
  List.iter
    (fun v ->
      Alcotest.(check bool) "removed node not named" false (List.mem v named);
      Alcotest.(check int) "removed node has no whiteboard" 0 (Dist.wb_bits d v))
    [ leaf; internal ];
  Alcotest.(check bool) "only live nodes named" true (List.for_all (Dtree.live tree) named)

(* [Dist.restart] is [Dist.create] with the retired controller's config
   and network. Two twin networks serve the same first stream, which
   leaves permits on whiteboards; then one restarts its controller and the
   other creates one afresh, and both serve the same second stream, which
   exhausts them, with the same answers, messages, bits and whiteboards. *)
let test_restart_is_fresh () =
  let config = { Dist.default_config with exhaustion = `Hold; name = "epoch" } in
  let first_params = Params.make ~m:100_000 ~w:1600 ~u:400
  and params = Params.make ~m:40 ~w:10 ~u:400 in
  let serve net d ~seed =
    let submit op ~k =
      Dist.submit d op ~k:(function
        | Types.Granted -> Dist.apply d op ~k:(fun _ -> k Types.Granted)
        | outcome -> k outcome)
    in
    Dist_harness.run_on ~seed ~concurrency:6 ~net ~mix:Workload.Mix.churn ~requests:120 ~submit ()
  in
  let second_epoch rotate =
    let tree = Workload.Shape.build (Rng.create ~seed:81) (Workload.Shape.Path 150) in
    let net = Net.create ~seed:82 ~max_delay:8 ~tree () in
    let first = Dist.create ~config ~params:first_params ~net () in
    ignore (serve net first ~seed:83);
    Alcotest.(check bool) "whiteboards hold permits" true
      (Dist.leftover first > Dist.storage first);
    let d = rotate first net in
    let ((_, _, unanswered) as answers) = serve net d ~seed:84 in
    Alcotest.(check bool) "the second stream exhausts" true (unanswered > 0);
    Dtree.check tree;
    (first, d, answers, Net.messages net, Net.total_bits net)
  in
  let retired, d, answers, messages, bits =
    second_epoch (fun first _ -> Dist.restart first ~params)
  in
  let _, fresh, answers', messages', bits' =
    second_epoch (fun _ net -> Dist.create ~config ~params ~net ())
  in
  let counts = Alcotest.(triple int int int) in
  Alcotest.(check counts) "answers" answers' answers;
  Alcotest.(check int) "messages" messages' messages;
  Alcotest.(check int) "bits" bits' bits;
  Alcotest.(check (list (triple int (list int) int))) "whiteboards" (Dist.snapshot fresh)
    (Dist.snapshot d);
  Alcotest.(check int) "leftover" (Dist.leftover fresh) (Dist.leftover d);
  Alcotest.(check int) "whiteboard bits" (Dist.max_wb_bits fresh) (Dist.max_wb_bits d);
  Alcotest.(check int) "no locks left" 0 (Dist.locked_count d);
  Alcotest.(check (list (triple int (list int) int))) "the retired controller holds none" []
    (Dist.snapshot retired)

let test_restart_refuses_outstanding () =
  let tree = Workload.Shape.build (Rng.create ~seed:85) (Workload.Shape.Path 20) in
  let net = Net.create ~seed:86 ~tree () in
  let params = Params.make ~m:100 ~w:10 ~u:40 in
  let d = Dist.create ~params ~net () in
  Dist.submit d (Workload.Non_topological (Dtree.any_leaf tree)) ~k:ignore;
  Alcotest.check_raises "outstanding" (Invalid_argument "Dist.restart: requests outstanding")
    (fun () -> ignore (Dist.restart d ~params));
  Net.run net;
  let d' = Dist.restart d ~params in
  Alcotest.(check int) "the retired controller granted" 1 (Dist.granted d);
  Alcotest.(check int) "the restarted one starts afresh" 0 (Dist.granted d');
  Alcotest.(check int) "with full storage" 100 (Dist.storage d')

(* A fake client of the epoch engine ([Rotation]): it drains when told
   to, and logs the time of each epoch start and each routed request. *)
type fake = {
  net : Net.t;
  mutable drained : bool;
  mutable starts : int list;  (* latest first *)
  mutable routed : (int * int) list;  (* (request, time), latest first *)
}

let fake_drained c = c.drained
let fake_next c = c.starts <- Net.now c.net :: c.starts
let fake_route c r = c.routed <- (r, Net.now c.net) :: c.routed

let fake_client ?sink () =
  let tree = Workload.Shape.build (Rng.create ~seed:87) (Workload.Shape.Path 8) in
  let net = Net.create ~seed:88 ?sink ~tree () in
  let c = { net; drained = false; starts = []; routed = [] } in
  (c, Rotation.create ~net ~name:"fake" ~drained:fake_drained ~next:fake_next ~route:fake_route)

let routed = Alcotest.(list (pair int int))

let test_rotation_drained_at_once () =
  let c, e = fake_client () in
  c.drained <- true;
  Rotation.park e c 1;
  Alcotest.(check int) "rotated" 1 (Rotation.epochs e);
  Alcotest.(check bool) "no rotation pending" false (Rotation.rotating e);
  Alcotest.(check (list int)) "the next epoch started at once" [ 0 ] c.starts;
  Alcotest.(check routed) "not routed yet" [] c.routed;
  Net.run c.net;
  Alcotest.(check routed) "routed one tick later" [ (1, 1) ] c.routed

let test_rotation_polls_until_drained () =
  let c, e = fake_client () in
  Rotation.park e c 1;
  Alcotest.(check bool) "rotation pending" true (Rotation.rotating e);
  Alcotest.(check int) "not rotated" 0 (Rotation.epochs e);
  (* polls at 2 and 4: the client drains in between *)
  Net.schedule c.net ~delay:3 (fun () -> c.drained <- true);
  Net.run c.net;
  Alcotest.(check (list int)) "started at the first poll after draining" [ 4 ] c.starts;
  Alcotest.(check routed) "routed one tick later" [ (1, 5) ] c.routed;
  Alcotest.(check int) "one rotation" 1 (Rotation.epochs e)

let test_rotation_parks_while_pending () =
  let c, e = fake_client () in
  Rotation.park e c 1;
  Net.schedule c.net ~delay:1 (fun () -> Rotation.park e c 2);
  Net.schedule c.net ~delay:3 (fun () ->
      Rotation.park e c 3;
      c.drained <- true;
      (* a park while a rotation is pending only queues, drained or not *)
      Rotation.park e c 4;
      Alcotest.(check (list int)) "no epoch started by a park" [] c.starts);
  Net.run c.net;
  Alcotest.(check int) "one rotation" 1 (Rotation.epochs e);
  Alcotest.(check (list int)) "one epoch start" [ 4 ] c.starts;
  Alcotest.(check routed) "in park order, one tick after the rotation"
    [ (1, 5); (2, 5); (3, 5); (4, 5) ]
    (List.rev c.routed)

let test_rotation_records_epochs () =
  let sink = Telemetry.Sink.create () in
  let c, e = fake_client ~sink () in
  c.drained <- true;
  Rotation.park e c 1;
  ignore (Dtree.add_leaf (Net.tree c.net) ~parent:(Dtree.root (Net.tree c.net)));
  Rotation.park e c 2;
  Net.run c.net;
  let epochs =
    List.filter_map
      (fun ev ->
        match ev.Telemetry.Event.kind with
        | Telemetry.Event.Epoch { ctrl; epoch; n } -> Some (ctrl, epoch, n)
        | _ -> None)
      (Telemetry.Sink.events sink)
  in
  Alcotest.(check (list (triple string int int))) "one event per rotation"
    [ ("fake", 1, 8); ("fake", 2, 9) ]
    epochs;
  Alcotest.(check int) "epochs" 2 (Rotation.epochs e)

let suite =
  ( "dist",
    [
      Alcotest.test_case "single deep request" `Quick test_single_deep_request;
      Alcotest.test_case "static grants are message-free" `Quick test_static_reuse_no_messages;
      Alcotest.test_case "concurrent churn" `Quick test_concurrent_churn;
      Alcotest.test_case "safety/liveness under exhaustion" `Quick
        test_safety_liveness_under_exhaustion;
      Alcotest.test_case "hold mode" `Quick test_hold_mode;
      Alcotest.test_case "blocked hold-mode apply stays outstanding" `Quick
        test_blocked_apply_stays_outstanding;
      Alcotest.test_case "tree stays valid under heavy deletion" `Quick test_tree_stays_valid;
      prop_serialized_matches_centralized;
      prop_concurrent_safety_liveness;
      prop_permit_conservation;
      Alcotest.test_case "deep-path serialized equivalence" `Quick test_deep_path_equivalence;
      Alcotest.test_case "whiteboard memory bound" `Quick test_memory_bound;
      Alcotest.test_case "request far past initial capacity" `Quick test_far_node_id;
      Alcotest.test_case "removal clears the whiteboard slot" `Quick
        test_removal_clears_whiteboard;
      Alcotest.test_case "restart behaves as a fresh controller" `Quick test_restart_is_fresh;
      Alcotest.test_case "restart refuses outstanding requests" `Quick
        test_restart_refuses_outstanding;
      Alcotest.test_case "rotation on a drained client is immediate" `Quick
        test_rotation_drained_at_once;
      Alcotest.test_case "rotation polls until the client drains" `Quick
        test_rotation_polls_until_drained;
      Alcotest.test_case "parks during a rotation queue in order" `Quick
        test_rotation_parks_while_pending;
      Alcotest.test_case "each rotation records one epoch event" `Quick
        test_rotation_records_epochs;
    ] )
