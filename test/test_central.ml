open Controller

(* A fixed-U centralized controller driven by a workload; U must genuinely
   bound nodes-ever, so we budget it as n0 + steps. *)
let make_setup ~seed ~shape ~steps ~m_of ~w_of =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng shape in
  let n0 = Dtree.size tree in
  let u = n0 + steps in
  let m = m_of n0 and w = w_of n0 in
  let params = Params.make ~m ~w ~u in
  (tree, params)

let test_grant_at_root () =
  let tree = Dtree.create () in
  let params = Params.make ~m:10 ~w:4 ~u:8 in
  let c = Central.create ~params ~tree () in
  Alcotest.(check Helpers.outcome) "granted"
    Types.Granted
    (Central.request c (Workload.Add_leaf (Dtree.root tree)));
  Alcotest.(check int) "one grant" 1 (Central.granted c);
  Alcotest.(check int) "tree grew" 2 (Dtree.size tree);
  Alcotest.(check int) "leftover" 9 (Central.leftover c)

let test_deep_request_builds_packages () =
  let rng = Rng.create ~seed:1 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 400) in
  let params = Params.make ~m:4000 ~w:800 ~u:800 in
  let c, tracker = Helpers.central_with_domains ~params ~tree in
  let leaf = List.hd (Dtree.leaves tree) in
  Alcotest.(check Helpers.outcome) "granted" Types.Granted
    (Central.request c (Workload.Non_topological leaf));
  Alcotest.(check bool) "moved something" true (Central.moves c > 0);
  (* Proc leaves one mobile package per level below j(u), plus the static
     remainder at the leaf. *)
  let mobile_count =
    Central.fold_stores c ~init:0 ~f:(fun acc _ s -> acc + List.length (Store.mobiles s))
  in
  let d = Dtree.depth tree leaf in
  let j = Params.creation_level params d in
  Alcotest.(check int) "one package per level" j mobile_count;
  Helpers.expect_domains tracker

let test_static_reuse () =
  let rng = Rng.create ~seed:2 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 100) in
  (* W = 4U so phi = 2: the first grant leaves one static permit behind. *)
  let u = 200 in
  let params = Params.make ~m:4000 ~w:(4 * u) ~u in
  let c = Central.create ~params ~tree () in
  let leaf = List.hd (Dtree.leaves tree) in
  ignore (Central.request c (Workload.Non_topological leaf));
  let moves1 = Central.moves c in
  ignore (Central.request c (Workload.Non_topological leaf));
  Alcotest.(check int) "second grant free (static)" moves1 (Central.moves c);
  Alcotest.(check int) "two grants" 2 (Central.granted c)

let test_filler_reuse_cheaper () =
  (* After the first request populated the path with packages, a second
     request nearby should be served from a filler far cheaper than from the
     root. *)
  let rng = Rng.create ~seed:3 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 500) in
  let params = Params.make ~m:100000 ~w:200 ~u:1000 in
  let c = Central.create ~params ~tree () in
  let leaf = List.hd (Dtree.leaves tree) in
  ignore (Central.request c (Workload.Non_topological leaf));
  let first = Central.moves c in
  ignore (Central.request c (Workload.Add_leaf leaf));
  let second = Central.moves c - first in
  Alcotest.(check bool)
    (Printf.sprintf "second request cheaper (%d < %d)" second first)
    true
    (second < first)

let test_report_mode () =
  let rng = Rng.create ~seed:4 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 400) in
  (* With W = U, psi is small, so a request from depth 399 needs a level
     j >= 1 package of more than one permit: M = 1 cannot pay. *)
  let params = Params.make ~m:1 ~w:400 ~u:400 in
  let c = Central.create ~reject_mode:Types.Report ~params ~tree () in
  let leaf = List.hd (Dtree.leaves tree) in
  (* M = 1 but a deep request needs a level-j package of more than one
     permit: exhausted immediately, with no state change. *)
  let before = (Central.moves c, Central.leftover c, Dtree.size tree) in
  Alcotest.(check Helpers.outcome) "exhausted" Types.Exhausted
    (Central.request c (Workload.Add_leaf leaf));
  Alcotest.(check (triple int int int))
    "no side effects" before
    (Central.moves c, Central.leftover c, Dtree.size tree);
  Alcotest.(check bool) "no wave" false (Central.wave_done c)

let test_wave_mode_rejects () =
  let rng = Rng.create ~seed:5 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 400) in
  let params = Params.make ~m:1 ~w:400 ~u:400 in
  let c = Central.create ~params ~tree () in
  let leaf = List.hd (Dtree.leaves tree) in
  Alcotest.(check Helpers.outcome) "rejected" Types.Rejected
    (Central.request c (Workload.Add_leaf leaf));
  Alcotest.(check bool) "wave done" true (Central.wave_done c);
  (* every subsequent request, anywhere, is rejected *)
  Alcotest.(check Helpers.outcome) "rejected at root" Types.Rejected
    (Central.request c (Workload.Add_leaf (Dtree.root tree)));
  Alcotest.(check int) "rejections counted" 2 (Central.rejected c)

let test_deletion_moves_packages () =
  let rng = Rng.create ~seed:6 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 300) in
  let u = 600 in
  let params = Params.make ~m:100000 ~w:(4 * u) ~u in
  let c, tracker = Helpers.central_with_domains ~params ~tree in
  let leaf = List.hd (Dtree.leaves tree) in
  ignore (Central.request c (Workload.Non_topological leaf));
  (* find a node hosting a mobile package and delete it *)
  let host =
    Central.fold_stores c ~init:None ~f:(fun acc v s ->
        match acc with
        | Some _ -> acc
        | None ->
            if Store.mobiles s <> [] && v <> Dtree.root tree && not (Dtree.is_leaf tree v)
            then Some v
            else None)
  in
  match host with
  | None -> Alcotest.fail "expected a package host on the path"
  | Some v ->
      let parent = Option.get (Dtree.parent tree v) in
      let permits_before =
        Central.fold_stores c ~init:0 ~f:(fun acc _ s -> acc + Store.permits s)
      in
      Alcotest.(check Helpers.outcome) "deletion granted" Types.Granted
        (Central.request c (Workload.Remove_internal v));
      Helpers.expect_domains tracker;
      let permits_after =
        Central.fold_stores c ~init:0 ~f:(fun acc _ s -> acc + Store.permits s)
      in
      Alcotest.(check bool) "no permit lost in relocation" true
        (permits_after >= permits_before - 1);
      let parent_store_nonempty =
        Central.fold_stores c ~init:false ~f:(fun acc w s ->
            acc || (w = parent && Store.permits s > 0))
      in
      Alcotest.(check bool) "parent inherited packages" true parent_store_nonempty

(* The store column starts empty and grows on demand: a first request at a
   node id far past any initial capacity lands its static remainder there,
   and no permit is lost across the growth. *)
let test_far_node_id () =
  let rng = Rng.create ~seed:7 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 5000) in
  let u = 6000 in
  let m = 1_000_000 in
  let params = Params.make ~m ~w:(4 * u) ~u in
  let c = Central.create ~params ~tree () in
  let leaf = List.hd (Dtree.leaves tree) in
  Alcotest.(check bool) "leaf id far past 64" true (leaf >= 4096);
  Alcotest.(check Helpers.outcome) "granted" Types.Granted
    (Central.request c (Workload.Non_topological leaf));
  let hosts = List.rev (Central.fold_stores c ~init:[] ~f:(fun acc v _ -> v :: acc)) in
  Alcotest.(check bool) "leaf keeps its static remainder" true (List.mem leaf hosts);
  Alcotest.(check (list int)) "ascending node order" (List.sort Int.compare hosts) hosts;
  Alcotest.(check int) "conservation" m (Central.granted c + Central.leftover c)

(* A deleted node's slot is cleared: its packages moved to the parent, and
   no later fold names the dead node. *)
let test_removal_clears_slot () =
  let rng = Rng.create ~seed:8 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 300) in
  let u = 600 in
  let params = Params.make ~m:100000 ~w:(4 * u) ~u in
  let c = Central.create ~params ~tree () in
  let leaf = List.hd (Dtree.leaves tree) in
  ignore (Central.request c (Workload.Non_topological leaf));
  let named () = Central.fold_stores c ~init:[] ~f:(fun acc v _ -> v :: acc) in
  let remove op =
    Alcotest.(check Helpers.outcome) "removal granted" Types.Granted (Central.request c op)
  in
  remove (Workload.Remove_leaf leaf);
  let internal =
    List.find (fun v -> v <> Dtree.root tree && not (Dtree.is_leaf tree v)) (named ())
  in
  remove (Workload.Remove_internal internal);
  let named = named () in
  Alcotest.(check bool) "removed leaf not named" false (List.mem leaf named);
  Alcotest.(check bool) "removed internal not named" false (List.mem internal named);
  Alcotest.(check bool) "only live nodes named" true (List.for_all (Dtree.live tree) named)

(* Until the reject wave, every move is a package carried down a
   requester's path or a deleted node's store carried up one edge, and the
   package events name each of them: the distances of [Split] and
   [Became_static] plus one per [Store_moved] add up to [Central.moves].
   A split lands at its level's landing distance, and its left half is
   hosted there by the time the request is granted. Returns the number of
   splits and joins seen. *)
let run_package_accounting ~seed ~shape ~mix ~deep_bias ~m ~w ~u ~requests =
  let tree = Workload.Shape.build (Rng.create ~seed) shape in
  let params = Params.make ~m ~w ~u in
  let ctrl = ref None in
  let moved = ref 0 and splits = ref 0 and joins = ref 0 and landed = ref [] in
  let hosted c (pkg, host) =
    Central.fold_stores c ~init:false ~f:(fun acc v s ->
        acc
        || v = host
           && List.exists (fun p -> p.Package.id = pkg.Package.id) (Store.mobiles s))
  in
  let on_package_event = function
    | Central.Split { parent; left; requester; from_dist; to_dist; _ } ->
        incr splits;
        moved := !moved + from_dist - to_dist;
        let want = Params.landing_distance params (parent.Package.level - 1) in
        if to_dist <> want then
          Alcotest.failf "level-%d split landed at distance %d, want %d" parent.Package.level
            to_dist want;
        landed := (left, Option.get (Dtree.ancestor_at tree requester to_dist)) :: !landed
    | Central.Became_static { from_dist; _ } -> moved := !moved + from_dist
    | Central.Store_moved _ ->
        incr joins;
        incr moved
    | Central.Granted_at _ ->
        (* the request's splits have all landed; its change is not applied yet *)
        let c = Option.get !ctrl in
        List.iter
          (fun l ->
            if not (hosted c l) then
              Alcotest.failf "package %d is not hosted at node %d" (fst l).Package.id (snd l))
          !landed;
        landed := []
    | Central.Created _ -> ()
  in
  let c = Central.create ~hooks:{ Central.no_hooks with on_package_event } ~params ~tree () in
  ctrl := Some c;
  let wl = Workload.make ~seed:(seed + 1) ~deep_bias ~mix () in
  for _ = 1 to requests do
    ignore (Central.request c (Workload.next_op wl tree));
    if (not (Central.wave_done c)) && Central.moves c <> !moved then
      Alcotest.failf "%d moves, but the package events account for %d" (Central.moves c) !moved
  done;
  (!splits, !joins)

let test_package_events_account_for_moves () =
  let path ~deep_bias =
    run_package_accounting ~seed:5 ~shape:(Workload.Shape.Path 3000) ~mix:Workload.Mix.churn
      ~deep_bias ~m:100_000 ~w:4000 ~u:4000 ~requests:600
  in
  let splits, _ = path ~deep_bias:false in
  let deep_splits, _ = path ~deep_bias:true in
  let _, joins =
    run_package_accounting ~seed:9 ~shape:(Workload.Shape.Caterpillar 400)
      ~mix:Workload.Mix.shrink_heavy ~deep_bias:false ~m:20_000 ~w:3200 ~u:800 ~requests:350
  in
  Alcotest.(check bool) "paths split packages" true (splits > 0 && deep_splits > 0);
  Alcotest.(check bool) "the caterpillar joins stores" true (joins > 0)

(* Safety: a controller never grants more than M, on any workload. *)
let prop_safety =
  Helpers.qcheck ~count:25 "safety: grants <= M"
    QCheck2.Gen.(pair (int_range 0 99999) (int_range 0 3))
    (fun (seed, shape_idx) ->
      let shape = List.nth Helpers.shapes_small shape_idx in
      let steps = 120 in
      let tree, params =
        make_setup ~seed ~shape ~steps
          ~m_of:(fun n0 -> n0 / 2)
          ~w_of:(fun n0 -> max 1 (n0 / 8))
      in
      let c = Central.create ~params ~tree () in
      let w = Workload.make ~seed ~mix:Workload.Mix.churn () in
      for _ = 1 to steps do
        ignore (Central.request c (Workload.next_op w tree))
      done;
      Central.granted c <= params.Params.m)

(* Liveness (Lemma 3.2): when the first reject happens, at least M - W
   permits have been granted. *)
let prop_liveness =
  Helpers.qcheck ~count:40 "liveness: reject implies grants >= M - W"
    QCheck2.Gen.(triple (int_range 0 99999) (int_range 0 4) (int_range 0 3))
    (fun (seed, shape_idx, w_idx) ->
      let shape = List.nth Helpers.shapes_small shape_idx in
      let steps = 400 in
      let tree, params =
        make_setup ~seed ~shape ~steps
          ~m_of:(fun n0 -> 3 * n0)
          ~w_of:(fun n0 -> List.nth [ 1; max 1 (n0 / 4); n0; 10 * n0 ] w_idx)
      in
      let c = Central.create ~params ~tree () in
      let w = Workload.make ~seed ~mix:Workload.Mix.churn () in
      let ok = ref true in
      (try
         for _ = 1 to steps do
           match Central.request c (Workload.next_op w tree) with
           | Types.Rejected ->
               if Central.granted c < params.Params.m - params.Params.w then ok := false;
               raise Exit
           | Types.Granted | Types.Exhausted -> ()
         done
       with Exit -> ());
      !ok)

(* The domain invariants of Section 3.2 hold after every single step. *)
let prop_domain_invariants =
  Helpers.qcheck ~count:40 "domain invariants hold at all times"
    QCheck2.Gen.(triple (int_range 0 99999) (int_range 0 4) (int_range 0 2))
    (fun (seed, shape_idx, mix_idx) ->
      let shape = List.nth Helpers.shapes_medium shape_idx in
      let mix =
        List.nth Workload.Mix.[ churn; shrink_heavy; mixed_events ] mix_idx
      in
      let steps = 150 in
      let tree, params =
        make_setup ~seed ~shape ~steps
          ~m_of:(fun n0 -> 20 * n0)
          ~w_of:(fun n0 -> 2 * n0)
      in
      let c, tracker = Helpers.central_with_domains ~params ~tree in
      let w = Workload.make ~seed ~mix () in
      let ok = ref true in
      for _ = 1 to steps do
        ignore (Central.request c (Workload.next_op w tree));
        match Domain_tracker.check tracker with Ok () -> () | Error _ -> ok := false
      done;
      !ok)

(* Permit conservation: granted + leftover = M until the wave. *)
let prop_conservation =
  Helpers.qcheck ~count:25 "permit conservation"
    QCheck2.Gen.(int_range 0 99999)
    (fun seed ->
      let steps = 150 in
      let tree, params =
        make_setup ~seed ~shape:(Workload.Shape.Random 60) ~steps
          ~m_of:(fun n0 -> 10 * n0)
          ~w_of:(fun n0 -> n0)
      in
      let c = Central.create ~reject_mode:Types.Report ~params ~tree () in
      let w = Workload.make ~seed ~mix:Workload.Mix.churn () in
      let ok = ref true in
      for _ = 1 to steps do
        ignore (Central.request c (Workload.next_op w tree));
        if Central.granted c + Central.leftover c <> params.Params.m then ok := false
      done;
      !ok)

(* Under random churn the store column stays consistent with its folds:
   leftover is the root storage plus every non-empty store's permits, and
   only live nodes hold a store. *)
let prop_leftover_matches_stores =
  Helpers.qcheck ~count:25 "leftover = storage + stored permits, live hosts only"
    QCheck2.Gen.(pair (int_range 0 99999) (int_range 0 3))
    (fun (seed, shape_idx) ->
      let shape = List.nth Helpers.shapes_small shape_idx in
      let steps = 150 in
      let tree, params =
        make_setup ~seed ~shape ~steps
          ~m_of:(fun n0 -> 10 * n0)
          ~w_of:(fun n0 -> n0)
      in
      let c = Central.create ~reject_mode:Types.Report ~params ~tree () in
      let w = Workload.make ~seed ~mix:Workload.Mix.churn () in
      let ok = ref true in
      for _ = 1 to steps do
        ignore (Central.request c (Workload.next_op w tree));
        let stored =
          Central.fold_stores c ~init:0 ~f:(fun acc v s ->
              if not (Dtree.live tree v) then ok := false;
              acc + Store.permits s)
        in
        if Central.leftover c <> Central.storage c + stored then ok := false
      done;
      !ok)

let suite =
  ( "central",
    [
      Alcotest.test_case "grant at root" `Quick test_grant_at_root;
      Alcotest.test_case "deep request builds package ladder" `Quick
        test_deep_request_builds_packages;
      Alcotest.test_case "static reuse is free" `Quick test_static_reuse;
      Alcotest.test_case "fillers make nearby requests cheap" `Quick test_filler_reuse_cheaper;
      Alcotest.test_case "report mode has no side effects" `Quick test_report_mode;
      Alcotest.test_case "wave mode rejects everywhere" `Quick test_wave_mode_rejects;
      Alcotest.test_case "deletion relocates packages" `Quick test_deletion_moves_packages;
      Alcotest.test_case "request far past initial capacity" `Quick test_far_node_id;
      Alcotest.test_case "removal clears the node's slot" `Quick test_removal_clears_slot;
      Alcotest.test_case "package events account for every move" `Quick
        test_package_events_account_for_moves;
      prop_safety;
      prop_liveness;
      prop_domain_invariants;
      prop_conservation;
      prop_leftover_matches_stores;
    ] )
