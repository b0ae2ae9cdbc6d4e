let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_initial () =
  let t = Dtree.create () in
  check_int "size" 1 (Dtree.size t);
  check_int "root depth" 0 (Dtree.depth t (Dtree.root t));
  check_bool "root live" true (Dtree.live t (Dtree.root t));
  check_bool "root is leaf" true (Dtree.is_leaf t (Dtree.root t));
  Dtree.check t

let test_add_remove_leaf () =
  let t = Dtree.create () in
  let a = Dtree.add_leaf t ~parent:(Dtree.root t) in
  let b = Dtree.add_leaf t ~parent:a in
  check_int "size" 3 (Dtree.size t);
  check_int "depth b" 2 (Dtree.depth t b);
  check_bool "a no longer leaf" false (Dtree.is_leaf t a);
  Dtree.remove_leaf t b;
  check_bool "b dead" false (Dtree.live t b);
  check_bool "a leaf again" true (Dtree.is_leaf t a);
  check_int "changes" 3 (Dtree.change_count t);
  Dtree.check t

let test_add_internal () =
  let t = Dtree.create () in
  let a = Dtree.add_leaf t ~parent:(Dtree.root t) in
  let b = Dtree.add_leaf t ~parent:a in
  let m = Dtree.add_internal t ~above:b in
  check_int "b deeper now" 3 (Dtree.depth t b);
  Alcotest.(check (option int)) "b's parent" (Some m) (Dtree.parent t b);
  Alcotest.(check (option int)) "m's parent" (Some a) (Dtree.parent t m);
  check_bool "m internal" false (Dtree.is_leaf t m);
  Dtree.check t

let test_remove_internal () =
  let t = Dtree.create () in
  let a = Dtree.add_leaf t ~parent:(Dtree.root t) in
  let b = Dtree.add_leaf t ~parent:a in
  let c = Dtree.add_leaf t ~parent:a in
  Dtree.remove_internal t a;
  check_bool "a dead" false (Dtree.live t a);
  Alcotest.(check (option int)) "b adopted" (Some (Dtree.root t)) (Dtree.parent t b);
  Alcotest.(check (option int)) "c adopted" (Some (Dtree.root t)) (Dtree.parent t c);
  check_int "depth b" 1 (Dtree.depth t b);
  Dtree.check t

let test_ancestors () =
  let t = Dtree.create () in
  let a = Dtree.add_leaf t ~parent:(Dtree.root t) in
  let b = Dtree.add_leaf t ~parent:a in
  let c = Dtree.add_leaf t ~parent:b in
  Alcotest.(check (list int)) "ancestors" [ c; b; a; 0 ] (Dtree.ancestors t c);
  Alcotest.(check (option int)) "ancestor at 2" (Some a) (Dtree.ancestor_at t c 2);
  Alcotest.(check (option int)) "ancestor too far" None (Dtree.ancestor_at t c 9);
  Alcotest.check_raises "no ancestor at a negative distance"
    (Invalid_argument "Dtree.ancestor_at: negative distance") (fun () ->
      ignore (Dtree.ancestor_at t c (-1)));
  check_bool "is_ancestor" true (Dtree.is_ancestor t ~anc:a ~desc:c);
  check_bool "self ancestor" true (Dtree.is_ancestor t ~anc:c ~desc:c);
  check_bool "not ancestor" false (Dtree.is_ancestor t ~anc:c ~desc:a)

let test_lca () =
  let t = Dtree.create () in
  let a = Dtree.add_leaf t ~parent:(Dtree.root t) in
  let b = Dtree.add_leaf t ~parent:a in
  let c = Dtree.add_leaf t ~parent:a in
  let d = Dtree.add_leaf t ~parent:c in
  check_int "lca b d" a (Dtree.lowest_common_ancestor t b d);
  check_int "lca c d" c (Dtree.lowest_common_ancestor t c d);
  check_int "lca root x" 0 (Dtree.lowest_common_ancestor t 0 d)

let test_errors () =
  let t = Dtree.create () in
  let a = Dtree.add_leaf t ~parent:(Dtree.root t) in
  let raises name f = Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  raises "remove root" (fun () -> Dtree.remove_leaf t 0);
  raises "remove non-leaf as leaf" (fun () -> Dtree.remove_leaf t 0);
  raises "remove leaf as internal" (fun () -> Dtree.remove_internal t a);
  raises "insert above root" (fun () -> ignore (Dtree.add_internal t ~above:0));
  Dtree.remove_leaf t a;
  raises "dead parent" (fun () -> ignore (Dtree.add_leaf t ~parent:a));
  raises "port of root" (fun () -> ignore (Dtree.port_to_parent t 0))

let test_ports_distinct () =
  let t = Dtree.create () in
  let kids = List.init 20 (fun _ -> Dtree.add_leaf t ~parent:(Dtree.root t)) in
  let ports = List.map (Dtree.port_to_parent t) kids in
  check_int "distinct ports" 20 (List.length (List.sort_uniq compare ports))

let test_subtree_size () =
  let t = Dtree.create () in
  let a = Dtree.add_leaf t ~parent:(Dtree.root t) in
  let b = Dtree.add_leaf t ~parent:a in
  let _c = Dtree.add_leaf t ~parent:a in
  Alcotest.(check int) "root subtree" 4 (Dtree.subtree_size t 0);
  Alcotest.(check int) "a subtree" 3 (Dtree.subtree_size t a);
  Alcotest.(check int) "leaf subtree" 1 (Dtree.subtree_size t b);
  let rng = Rng.create ~seed:8 in
  let big = Workload.Shape.build rng (Workload.Shape.Random 90) in
  Alcotest.(check int) "matches size at the root" (Dtree.size big)
    (Dtree.subtree_size big (Dtree.root big))

let test_dfs_and_leaves () =
  let rng = Rng.create ~seed:7 in
  let t = Workload.Shape.build rng (Workload.Shape.Random 60) in
  let visited = Dtree.fold_dfs t ~init:0 ~f:(fun acc _ -> acc + 1) in
  check_int "dfs visits all" (Dtree.size t) visited;
  List.iter (fun l -> check_bool "leaf" true (Dtree.is_leaf t l)) (Dtree.leaves t);
  List.iter (fun v -> check_bool "internal" false (Dtree.is_leaf t v)) (Dtree.internal_nodes t)

(* Property: any sequence of valid random ops keeps the tree consistent and
   the size/change counters exact. *)
let prop_random_ops =
  Helpers.qcheck ~count:60 "random op sequences keep invariants"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 1 150))
    (fun (seed, steps) ->
      let rng = Rng.create ~seed in
      let tree = Workload.Shape.build rng (Workload.Shape.Random 20) in
      let w = Workload.make ~seed ~mix:Workload.Mix.churn () in
      let expected_size = ref (Dtree.size tree) in
      for _ = 1 to steps do
        let op = Workload.next_op w tree in
        if not (Workload.valid_op tree op) then failwith "generator produced invalid op";
        (match op with
        | Workload.Add_leaf _ | Workload.Add_internal _ -> incr expected_size
        | Workload.Remove_leaf _ | Workload.Remove_internal _ -> decr expected_size
        | Workload.Non_topological _ -> ());
        Workload.apply tree op;
        Dtree.check tree
      done;
      !expected_size = Dtree.size tree)

let prop_depth_consistency =
  Helpers.qcheck ~count:40 "depth equals ancestor walk length"
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let tree = Workload.Shape.build rng (Workload.Shape.Random 80) in
      List.for_all
        (fun v -> List.length (Dtree.ancestors tree v) = Dtree.depth tree v + 1)
        (Dtree.live_nodes tree))

let suite =
  ( "dtree",
    [
      Alcotest.test_case "initial tree" `Quick test_initial;
      Alcotest.test_case "add/remove leaf" `Quick test_add_remove_leaf;
      Alcotest.test_case "add internal" `Quick test_add_internal;
      Alcotest.test_case "remove internal" `Quick test_remove_internal;
      Alcotest.test_case "ancestor queries" `Quick test_ancestors;
      Alcotest.test_case "lowest common ancestor" `Quick test_lca;
      Alcotest.test_case "error cases" `Quick test_errors;
      Alcotest.test_case "ports distinct" `Quick test_ports_distinct;
      Alcotest.test_case "subtree sizes" `Quick test_subtree_size;
      Alcotest.test_case "dfs and leaf sets" `Quick test_dfs_and_leaves;
      prop_random_ops;
      prop_depth_consistency;
    ] )
