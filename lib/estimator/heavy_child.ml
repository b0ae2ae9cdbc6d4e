(* The heavy-pointer maintenance of Theorem 5.4. The subtree estimator
   drives it through three callbacks ([on_change], [on_epoch],
   [on_applied]); the pointers read its estimates back directly.

   The rule needs each node's pointer to its heaviest child, [mu], and the
   estimate each child last reported. On this centralized transport a
   report is synchronous: the estimator calls [on_change] as soon as an
   estimate grows, and an addition, a splice, an adoption and an epoch
   rebuild re-report every child they touch, so the value a child last
   reported is always its current estimate. A parent therefore reads its
   children's estimates in place and keeps no report column; [report]
   still counts each report's message in [report_messages]. [mu] is a
   flat int array indexed by the arena node id ([Dtree.node]s are small
   ints below [ever_created]) that grows by doubling as the arena does,
   so a report is one comparison and at most one array write and boxes
   nothing.

   Ties: a pointer moves only to a strictly heavier child, so an equally
   heavy child never displaces the one it points at. When a pointer is
   picked afresh, the first heaviest child scanned wins: the lowest id at
   an epoch rebuild, and the first in [Dtree]'s child order when the heavy
   child leaves. *)

type t = {
  tree : Dtree.t;
  est : Subtree_estimator.t;
  mutable mu : int array;  (* node -> heaviest child; -1 = none *)
  mutable report_messages : int;
}

(* Cover every id the arena has handed out. *)
let ensure t =
  let n = Dtree.ever_created t.tree in
  if n > Array.length t.mu then begin
    let cap = max 64 (max (2 * Array.length t.mu) n) in
    let bigger = Array.make cap (-1) in
    Array.blit t.mu 0 bigger 0 (Array.length t.mu);
    t.mu <- bigger
  end

let mu_of t v = if v < Array.length t.mu then t.mu.(v) else -1

(* [p]'s pointer after its child [c] reported: it moves only to a strictly
   heavier child. The two estimates are read in place. *)
let offer t p c =
  let m = t.mu.(p) and est = Subtree_estimator.estimates t.est in
  if m < 0 || est.(c) > est.(m) then t.mu.(p) <- c

let recompute_mu t p =
  t.mu.(p) <- -1;
  Dtree.iter_children t.tree p ~f:(fun c -> offer t p c)

(* A child reports its (grown) estimate to its parent (one message). *)
let report t child =
  let p = Dtree.parent_id t.tree child in
  if p >= 0 then begin
    ensure t;
    t.report_messages <- t.report_messages + 1;
    offer t p child
  end

(* The node's estimate grew: report to its parent (one message). *)
let on_change t v = if Dtree.live t.tree v then report t v

(* Epoch rebuild: every node reports afresh (one broadcast, counted), then
   every parent points at its heaviest child, the lowest id among equals. *)
let on_epoch t () =
  ensure t;
  t.report_messages <- t.report_messages + Dtree.size t.tree;
  Array.fill t.mu 0 (Array.length t.mu) (-1);
  Dtree.iter_nodes t.tree ~f:(fun v ->
      let p = Dtree.parent_id t.tree v in
      if p >= 0 then offer t p v)

(* Maintain pointers across a topological change; every re-report is one
   message. *)
let on_applied t info =
  ensure t;
  match info with
  | Workload.Leaf_added { leaf; _ } -> report t leaf
  | Workload.Internal_added { below; fresh } ->
      (* [fresh] takes [below]'s place under [p] and reports there; [below]
         re-reports to [fresh], whose only child it is *)
      let p = Dtree.parent_id t.tree fresh in
      assert (p >= 0);  (* fresh was spliced above below, so it has a parent *)
      t.report_messages <- t.report_messages + 2;
      t.mu.(fresh) <- below;
      if t.mu.(p) = below then recompute_mu t p else offer t p fresh
  | Workload.Leaf_removed { node; parent } -> if t.mu.(parent) = node then recompute_mu t parent
  | Workload.Internal_removed { node; parent; children } ->
      (* [parent] adopts [node]'s children, and each re-reports there *)
      t.report_messages <- t.report_messages + List.length children;
      t.mu.(node) <- -1;
      if t.mu.(parent) = node then recompute_mu t parent
      else List.iter (fun c -> offer t parent c) children
  | Workload.Event_occurred _ -> ()

let create ~tree () =
  (* The estimator's callbacks reach [t] through [self]. Its first epoch
     starts inside [Subtree_estimator.create], before [t] exists, so [t]
     seeds that epoch's reports itself. *)
  let self = ref None in
  let with_self f x = match !self with Some t -> f t x | None -> () in
  let est =
    Subtree_estimator.create ~on_change:(with_self on_change) ~on_epoch:(with_self on_epoch)
      ~on_applied:(with_self on_applied) ~tree ()
  in
  let t = { tree; est; mu = [||]; report_messages = 0 } in
  self := Some t;
  on_epoch t ();
  t

let submit t op = Subtree_estimator.submit t.est op
let heavy t v = match mu_of t v with -1 -> None | c -> Some c

let light_ancestors t v =
  let rec go v acc =
    let p = Dtree.parent_id t.tree v in
    if p < 0 then acc
    else
      let light = mu_of t p <> v in
      go p (if light then acc + 1 else acc)
  in
  go v 0

let max_light_ancestors t =
  Dtree.fold_dfs t.tree ~init:0 ~f:(fun acc v -> max acc (light_ancestors t v))

let messages t = Subtree_estimator.moves t.est + t.report_messages
let epochs t = Subtree_estimator.epochs t.est
let estimator t = t.est
