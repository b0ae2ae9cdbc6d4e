(* The heavy-pointer maintenance of Theorem 5.4. The subtree estimator
   drives it through three callbacks ([on_change], [on_epoch],
   [on_applied]); the pointers read its estimates back directly.

   The rule needs each node's pointer to its heaviest child and the
   estimate each child last reported. A child reports only to its current
   parent, and it has exactly one, so the reports need no map per parent:
   they are one column indexed by the reporting child, [rep], which a
   parent reads across its [Dtree] children. A splice or an adoption gives
   a child a new parent, and the child re-reports there, rewriting its own
   slot. [rep] and [mu] are flat int arrays indexed by the arena node id
   ([Dtree.node]s are small ints below [ever_created]) that grow by
   doubling as the arena does, so a report is two array writes and boxes
   nothing.

   Ties: a pointer moves only to a strictly heavier child, so an equally
   heavy child never displaces the one it points at. When a pointer is
   picked afresh, the first heaviest child scanned wins: the lowest id at
   an epoch rebuild, and the first in [Dtree]'s child order when the heavy
   child leaves. *)

type t = {
  tree : Dtree.t;
  est : Subtree_estimator.t;
  mutable rep : int array;  (* child -> estimate it last reported to its parent *)
  mutable mu : int array;  (* node -> heaviest child; -1 = none *)
  mutable report_messages : int;
}

(* Cover every id the arena has handed out. *)
let ensure t =
  let n = Dtree.ever_created t.tree in
  if n > Array.length t.mu then begin
    let cap = max 64 (max (2 * Array.length t.mu) n) in
    let grow a fill =
      let bigger = Array.make cap fill in
      Array.blit a 0 bigger 0 (Array.length a);
      bigger
    in
    t.rep <- grow t.rep 0;
    t.mu <- grow t.mu (-1)
  end

let estimate t v = Subtree_estimator.estimate t.est v
let mu_of t v = if v < Array.length t.mu then t.mu.(v) else -1

(* [p]'s pointer after its child [c] reported: it moves only to a strictly
   heavier child. *)
let offer t p c =
  let m = t.mu.(p) in
  if m < 0 || t.rep.(c) > t.rep.(m) then t.mu.(p) <- c

let recompute_mu t p =
  t.mu.(p) <- -1;
  Dtree.iter_children t.tree p ~f:(fun c -> offer t p c)

(* A child reports a (grown) estimate to its parent (one message). *)
let report t child value =
  let p = Dtree.parent_id t.tree child in
  if p >= 0 then begin
    ensure t;
    t.report_messages <- t.report_messages + 1;
    t.rep.(child) <- value;
    offer t p child
  end

(* The node's estimate grew: report to its parent (one message). *)
let on_change t v = if Dtree.live t.tree v then report t v (estimate t v)

(* Epoch rebuild: every node reports afresh (one broadcast, counted), then
   every parent points at its heaviest child, the lowest id among equals. *)
let on_epoch t () =
  ensure t;
  t.report_messages <- t.report_messages + Dtree.size t.tree;
  Dtree.iter_nodes t.tree ~f:(fun v ->
      t.rep.(v) <- estimate t v;
      t.mu.(v) <- -1);
  Dtree.iter_nodes t.tree ~f:(fun v ->
      let p = Dtree.parent_id t.tree v in
      if p >= 0 then offer t p v)

(* Maintain reports and pointers across a topological change. *)
let on_applied t info =
  ensure t;
  match info with
  | Workload.Leaf_added { leaf; _ } -> report t leaf (estimate t leaf)
  | Workload.Internal_added { below; fresh } ->
      (* [fresh] takes [below]'s place under [p] and reports there; [below]
         re-reports to [fresh], whose only child it is *)
      let p = Dtree.parent_id t.tree fresh in
      assert (p >= 0);  (* fresh was spliced above below, so it has a parent *)
      t.report_messages <- t.report_messages + 2;
      t.rep.(fresh) <- estimate t fresh;
      t.rep.(below) <- estimate t below;
      t.mu.(fresh) <- below;
      if t.mu.(p) = below then recompute_mu t p else offer t p fresh
  | Workload.Leaf_removed { node; parent } -> if t.mu.(parent) = node then recompute_mu t parent
  | Workload.Internal_removed { node; parent; children } ->
      (* [parent] adopts [node]'s children, and each re-reports there *)
      List.iter
        (fun c ->
          t.report_messages <- t.report_messages + 1;
          t.rep.(c) <- estimate t c)
        children;
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
  let t = { tree; est; rep = [||]; mu = [||]; report_messages = 0 } in
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
