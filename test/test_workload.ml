let test_shapes () =
  let rng = Rng.create ~seed:1 in
  List.iter
    (fun (shape, n) ->
      let t = Workload.Shape.build rng shape in
      Alcotest.(check int) (Workload.Shape.name shape) n (Dtree.size t);
      Dtree.check t)
    [
      (Workload.Shape.Path 31, 31);
      (Workload.Shape.Star 17, 17);
      (Workload.Shape.Random 64, 64);
      (Workload.Shape.Balanced (2, 63), 63);
      (Workload.Shape.Balanced (5, 40), 40);
      (Workload.Shape.Caterpillar 25, 25);
    ]

let test_path_is_path () =
  let rng = Rng.create ~seed:1 in
  let t = Workload.Shape.build rng (Workload.Shape.Path 12) in
  Alcotest.(check int) "one leaf" 1 (List.length (Dtree.leaves t));
  let deepest = List.hd (Dtree.leaves t) in
  Alcotest.(check int) "depth" 11 (Dtree.depth t deepest)

let test_star_is_star () =
  let rng = Rng.create ~seed:1 in
  let t = Workload.Shape.build rng (Workload.Shape.Star 12) in
  Alcotest.(check int) "leaves" 11 (List.length (Dtree.leaves t));
  Alcotest.(check int) "root degree" 11 (Dtree.child_degree t (Dtree.root t))

let test_determinism () =
  let gen seed =
    let rng = Rng.create ~seed:9 in
    let t = Workload.Shape.build rng (Workload.Shape.Random 30) in
    let w = Workload.make ~seed ~mix:Workload.Mix.churn () in
    List.init 50 (fun _ ->
        let op = Workload.next_op w t in
        Workload.apply t op;
        Format.asprintf "%a" Workload.pp_op op)
  in
  Alcotest.(check (list string)) "same seed, same ops" (gen 42) (gen 42)

let test_grow_only_mix () =
  let rng = Rng.create ~seed:2 in
  let t = Workload.Shape.build rng (Workload.Shape.Random 10) in
  let w = Workload.make ~seed:3 ~mix:Workload.Mix.grow_only () in
  for _ = 1 to 100 do
    match Workload.next_op w t with
    | Workload.Add_leaf _ as op -> Workload.apply t op
    | op -> Alcotest.failf "grow-only produced %a" Workload.pp_op op
  done;
  Alcotest.(check int) "grew" 110 (Dtree.size t)

let test_request_site () =
  let t = Dtree.create () in
  let a = Dtree.add_leaf t ~parent:(Dtree.root t) in
  let b = Dtree.add_leaf t ~parent:a in
  Alcotest.(check int) "add-leaf site" a (Workload.request_site t (Workload.Add_leaf a));
  Alcotest.(check int) "remove-leaf site" b (Workload.request_site t (Workload.Remove_leaf b));
  Alcotest.(check int) "add-internal site is parent-to-be" a
    (Workload.request_site t (Workload.Add_internal b));
  Alcotest.(check int) "event site" b (Workload.request_site t (Workload.Non_topological b))

let test_touched () =
  let t = Dtree.create () in
  let a = Dtree.add_leaf t ~parent:(Dtree.root t) in
  let b = Dtree.add_leaf t ~parent:a in
  let c = Dtree.add_leaf t ~parent:a in
  let sorted l = List.sort compare l in
  Alcotest.(check (list int)) "remove-internal touches kids"
    (sorted [ a; 0; b; c ])
    (sorted (Workload.touched t (Workload.Remove_internal a)));
  Alcotest.(check (list int)) "remove-leaf touches parent" (sorted [ b; a ])
    (sorted (Workload.touched t (Workload.Remove_leaf b)))

let test_avoiding () =
  let rng = Rng.create ~seed:5 in
  let t = Workload.Shape.build rng (Workload.Shape.Random 40) in
  let w = Workload.make ~seed:6 ~mix:Workload.Mix.churn () in
  let forbidden v = v mod 2 = 0 && v <> Dtree.root t in
  for _ = 1 to 60 do
    match Workload.next_op_avoiding w t ~forbidden with
    | None -> Alcotest.fail "root is never forbidden here"
    | Some op ->
        (* The fallback Add_leaf root is always permitted. *)
        (match op with
        | Workload.Add_leaf v when v = Dtree.root t -> ()
        | op ->
            List.iter
              (fun v ->
                if forbidden v then
                  Alcotest.failf "%a touches forbidden %d" Workload.pp_op op v)
              (Workload.touched t op));
        Workload.apply t op
  done

let test_hotspot_targeting () =
  let rng = Rng.create ~seed:15 in
  let t = Workload.Shape.build rng (Workload.Shape.Random 60) in
  (* pick an internal node with a reasonable subtree as the hotspot *)
  let hotspot =
    List.fold_left
      (fun best v ->
        if Dtree.subtree_size t v > Dtree.subtree_size t best && v <> Dtree.root t then v
        else best)
      (List.hd (Dtree.internal_nodes t))
      (Dtree.internal_nodes t)
  in
  let w = Workload.make ~seed:16 ~within:hotspot ~mix:Workload.Mix.churn () in
  for _ = 1 to 120 do
    let op = Workload.next_op w t in
    (match op with
    | Workload.Add_leaf v when v = Dtree.root t -> ()  (* permitted fallback *)
    | op ->
        let target = Workload.request_site t op in
        let target =
          (* for removals the site is the node itself; check the op target *)
          match op with
          | Workload.Add_leaf v | Workload.Remove_leaf v | Workload.Add_internal v
          | Workload.Remove_internal v | Workload.Non_topological v ->
              ignore target;
              v
        in
        if Dtree.live t hotspot && not (Dtree.is_ancestor t ~anc:hotspot ~desc:target)
        then
          Alcotest.failf "%a targets %d outside hotspot %d" Workload.pp_op op target hotspot);
    Workload.apply t op
  done

(* Golden deep-bias op streams. A deep-bias draw may get cheaper but must
   not change: these digests pin every op (and so every RNG draw behind
   it). Each stream spans many snapshot refreshes (one per max 16 (n/4)
   changes); all but the grow-only one put internal inserts and removals
   between refreshes. *)
let digest s = Digest.to_hex (Digest.string s)

let deep_bias_goldens =
  Workload.
    [
      ("grow-only path", Shape.Path 64, Mix.grow_only, "831cdec954239feaa9b25655370dd075");
      ( "churn caterpillar",
        Shape.Caterpillar 80,
        Mix.churn,
        "e15b0bacfa44062595eb5af3e02f40e1" );
      ( "shrink-heavy random",
        Shape.Random 200,
        Mix.shrink_heavy,
        "e1965ebbd5dda48425eaf256766a9aa6" );
      ( "mixed-events balanced",
        Shape.Balanced (3, 120),
        Mix.mixed_events,
        "b234e1be05c7d1b50dacd6214dff5dce" );
    ]

let test_deep_bias_goldens () =
  List.iter
    (fun (name, shape, mix, expected) ->
      let trace =
        Workload.Trace.capture ~seed:11 ~deep_bias:true ~shape ~mix ~steps:400 ()
      in
      Alcotest.(check string) name expected (digest (Workload.Trace.to_string trace)))
    deep_bias_goldens

let prop_valid_ops =
  Helpers.qcheck ~count:40 "every generated op is valid for every mix"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 3))
    (fun (seed, which) ->
      let mix =
        List.nth
          Workload.Mix.[ grow_only; churn; shrink_heavy; mixed_events ]
          which
      in
      let rng = Rng.create ~seed in
      let t = Workload.Shape.build rng (Workload.Shape.Random 25) in
      let w = Workload.make ~seed ~mix () in
      let ok = ref true in
      for _ = 1 to 80 do
        let op = Workload.next_op w t in
        if not (Workload.valid_op t op) then ok := false else Workload.apply t op
      done;
      !ok)

let suite =
  ( "workload",
    [
      Alcotest.test_case "shape sizes" `Quick test_shapes;
      Alcotest.test_case "path shape" `Quick test_path_is_path;
      Alcotest.test_case "star shape" `Quick test_star_is_star;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "grow-only mix" `Quick test_grow_only_mix;
      Alcotest.test_case "request sites" `Quick test_request_site;
      Alcotest.test_case "touched sets" `Quick test_touched;
      Alcotest.test_case "conflict avoidance" `Quick test_avoiding;
      Alcotest.test_case "hotspot targeting" `Quick test_hotspot_targeting;
      Alcotest.test_case "deep-bias golden streams" `Quick test_deep_bias_goldens;
      prop_valid_ops;
    ] )
