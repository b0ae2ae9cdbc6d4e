(* The arena representation of Dtree against the seed Hashtbl representation
   (test/dtree_reference.ml): identical op sequences must produce identical
   trees under every structural query. Plus the free-list id-reuse contract
   and the 10^6-node degenerate-path regression (the recursive seed
   traversals overflowed the stack there). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module R = Dtree_reference

let sorted = List.sort Int.compare

(* ------------------------------------------------------------------ *)
(* Randomized differential replay                                      *)

(* Target selection scans the reference's sorted live list so the choice
   depends only on the RNG and the (shared) logical tree state — never on
   either implementation's internal iteration order. *)
let pick_live rng r =
  let live = Array.of_list (sorted (R.live_nodes r)) in
  live.(Rng.int rng (Array.length live))

let compare_trees step t r =
  check_int (Printf.sprintf "step %d: size" step) (R.size r) (Dtree.size t);
  check_int
    (Printf.sprintf "step %d: ever_created" step)
    (R.ever_created r) (Dtree.ever_created t);
  check_int
    (Printf.sprintf "step %d: change_count" step)
    (R.change_count r) (Dtree.change_count t);
  let live_r = sorted (R.live_nodes r) in
  Alcotest.(check (list int))
    (Printf.sprintf "step %d: live set" step)
    live_r
    (sorted (Dtree.live_nodes t));
  Alcotest.(check (list int))
    (Printf.sprintf "step %d: leaves" step)
    (sorted (R.leaves r))
    (sorted (Dtree.leaves t));
  List.iter
    (fun v ->
      Alcotest.(check (option int))
        (Printf.sprintf "step %d: parent %d" step v)
        (R.parent r v) (Dtree.parent t v);
      Alcotest.(check (list int))
        (Printf.sprintf "step %d: children %d" step v)
        (sorted (R.children r v))
        (sorted (Dtree.children t v));
      check_int
        (Printf.sprintf "step %d: degree %d" step v)
        (R.child_degree r v) (Dtree.child_degree t v);
      check_int
        (Printf.sprintf "step %d: depth %d" step v)
        (R.depth r v) (Dtree.depth t v);
      check_int
        (Printf.sprintf "step %d: subtree %d" step v)
        (R.subtree_size r v) (Dtree.subtree_size t v);
      check_bool
        (Printf.sprintf "step %d: is_leaf %d" step v)
        (R.is_leaf r v) (Dtree.is_leaf t v))
    live_r;
  (* the depth-reporting walk: the same preorder as [fold_dfs], every live
     node once, each with the reference's depth *)
  let walked =
    Dtree.fold_dfs_depth t ~init:[] ~f:(fun acc v d ->
        check_int (Printf.sprintf "step %d: walked depth %d" step v) (R.depth r v) d;
        v :: acc)
  in
  Alcotest.(check (list int))
    (Printf.sprintf "step %d: walk order" step)
    (Dtree.fold_dfs t ~init:[] ~f:(fun acc v -> v :: acc))
    walked;
  Alcotest.(check (list int))
    (Printf.sprintf "step %d: walk visits the live set" step)
    live_r (sorted walked);
  R.check r;
  Dtree.check t

let compare_lcas rng step t r =
  let live = Array.of_list (sorted (R.live_nodes r)) in
  for _ = 1 to 16 do
    let u = live.(Rng.int rng (Array.length live)) in
    let v = live.(Rng.int rng (Array.length live)) in
    check_int
      (Printf.sprintf "step %d: lca %d %d" step u v)
      (R.lowest_common_ancestor r u v)
      (Dtree.lowest_common_ancestor t u v)
  done

let replay ~seed ~steps =
  let rng = Rng.create ~seed in
  let t = Dtree.create () in
  let r = R.create () in
  for step = 1 to steps do
    let v = pick_live rng r in
    let reshapes = Dtree.reshape_count t in
    (* whether the change can move a depth: internal ones only *)
    let reshaped =
      match Rng.int rng 4 with
      | 0 ->
          let a = Dtree.add_leaf t ~parent:v in
          let b = R.add_leaf r ~parent:v in
          check_int (Printf.sprintf "step %d: fresh leaf id" step) b a;
          false
      | 1 ->
          if v <> R.root r && R.is_leaf r v then begin
            Dtree.remove_leaf t v;
            R.remove_leaf r v
          end;
          false
      | 2 ->
          if v <> R.root r then begin
            let a = Dtree.add_internal t ~above:v in
            let b = R.add_internal r ~above:v in
            check_int (Printf.sprintf "step %d: fresh internal id" step) b a;
            true
          end
          else false
      | _ ->
          if v <> R.root r && not (R.is_leaf r v) then begin
            Dtree.remove_internal t v;
            R.remove_internal r v;
            true
          end
          else false
    in
    check_int
      (Printf.sprintf "step %d: reshape count" step)
      (if reshaped then reshapes + 1 else reshapes)
      (Dtree.reshape_count t);
    if step mod 64 = 0 then begin
      compare_trees step t r;
      compare_lcas rng step t r
    end
  done;
  compare_trees steps t r;
  compare_lcas rng steps t r

let test_differential () =
  List.iter (fun seed -> replay ~seed ~steps:512) [ 7001; 7002; 7003 ]

(* ------------------------------------------------------------------ *)
(* Ids are never reused                                               *)

let test_no_reuse_by_default () =
  let t = Dtree.create () in
  let a = Dtree.add_leaf t ~parent:(Dtree.root t) in
  let b = Dtree.add_leaf t ~parent:(Dtree.root t) in
  Dtree.remove_leaf t b;
  Dtree.remove_leaf t a;
  let c = Dtree.add_leaf t ~parent:(Dtree.root t) in
  check_int "fresh id, no recycling" 3 c;
  check_bool "a stays dead" false (Dtree.live t a);
  check_int "ever_created counts all" 4 (Dtree.ever_created t);
  Dtree.check t

(* ------------------------------------------------------------------ *)
(* 10^6-node degenerate path: the seed's recursive traversals           *)
(* overflowed the stack here (subtree_size, fold_dfs, check, pp)        *)

let test_million_node_path () =
  let n = (1 lsl 20) + 1 in
  let t = Dtree.create () in
  let tip = ref (Dtree.root t) in
  for _ = 2 to n do
    tip := Dtree.add_leaf t ~parent:!tip
  done;
  check_int "size" n (Dtree.size t);
  check_int "tip depth" (n - 1) (Dtree.depth t !tip);
  check_int "subtree size at root" n (Dtree.subtree_size t (Dtree.root t));
  check_int "dfs fold sees every node" n
    (Dtree.fold_dfs t ~init:0 ~f:(fun acc _ -> acc + 1));
  check_int "any_leaf finds the tip" !tip (Dtree.any_leaf t);
  check_int "lca of tip and root" (Dtree.root t)
    (Dtree.lowest_common_ancestor t !tip (Dtree.root t));
  Dtree.check t;
  (* unwind the whole path from the tip, exercising remove on the same
     degenerate shape *)
  for _ = 2 to n do
    let v = !tip in
    tip := Dtree.parent_id t v;
    Dtree.remove_leaf t v
  done;
  check_int "unwound to the root" 1 (Dtree.size t);
  Dtree.check t

let suite =
  ( "dtree-arena",
    [
      Alcotest.test_case "differential vs seed representation" `Quick
        test_differential;
      Alcotest.test_case "ids not reused by default" `Quick
        test_no_reuse_by_default;
      Alcotest.test_case "million-node path traversals" `Quick
        test_million_node_path;
    ] )
