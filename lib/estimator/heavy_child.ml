(* The heavy-pointer maintenance of Theorem 5.4. The subtree estimator
   drives it through three callbacks ([on_change], [on_epoch],
   [on_applied]); the pointers read its estimates back directly.

   Per-node state is dense, indexed by the arena node id ([Dtree.node]s are
   small ints bounded by [ever_created]): [mu] is a flat int array and the
   per-parent report maps hang off an option array — the per-report hot
   path touches no outer hash and boxes nothing. Arrays grow on demand as
   the arena does. *)

type t = {
  tree : Dtree.t;
  est : Subtree_estimator.t;
  mutable reports : (Dtree.node, int) Hashtbl.t option array;
      (* parent -> child -> last reported estimate *)
  mutable mu : int array;  (* node -> heaviest child; -1 = none *)
  mutable report_messages : int;
}

let ensure t v =
  if v >= Array.length t.mu then begin
    let cap = max 64 (max (2 * Array.length t.mu) (v + 1)) in
    let mu = Array.make cap (-1) in
    Array.blit t.mu 0 mu 0 (Array.length t.mu);
    t.mu <- mu;
    let reports = Array.make cap None in
    Array.blit t.reports 0 reports 0 (Array.length t.reports);
    t.reports <- reports
  end

let estimate t v = Subtree_estimator.estimate t.est v

let reports_of t v =
  ensure t v;
  match t.reports.(v) with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 4 in
      t.reports.(v) <- Some h;
      h

let mu_of t v = if v < Array.length t.mu then t.mu.(v) else -1

let recompute_mu t v =
  let h = reports_of t v in
  let best_c = ref (-1) and best_e = ref min_int in
  Hashtbl.iter
    (fun c e ->
      if !best_c < 0 || e > !best_e then begin
        best_c := c;
        best_e := e
      end)
    h;
  t.mu.(v) <- !best_c

(* A child reports a (grown) estimate to its parent; pointers only move to
   strictly heavier children. *)
let report t child value =
  let p = Dtree.parent_id t.tree child in
  if p >= 0 then begin
    t.report_messages <- t.report_messages + 1;
    let h = reports_of t p in
    Hashtbl.replace h child value;
    let current = t.mu.(p) in
    if current < 0 then t.mu.(p) <- child
    else
      match Hashtbl.find h current with
      | cur_val -> if cur_val < value then t.mu.(p) <- child
      | exception Not_found -> t.mu.(p) <- child
  end

(* The node's estimate grew: report to its parent (one message). *)
let on_change t v = if Dtree.live t.tree v then report t v (estimate t v)

(* Epoch rebuild: reseed every report (one broadcast, counted). *)
let on_epoch t () =
  Array.fill t.reports 0 (Array.length t.reports) None;
  Array.fill t.mu 0 (Array.length t.mu) (-1);
  t.report_messages <- t.report_messages + Dtree.size t.tree;
  Dtree.iter_nodes t.tree ~f:(fun v ->
      let p = Dtree.parent_id t.tree v in
      if p >= 0 then Hashtbl.replace (reports_of t p) v (estimate t v));
  Array.iteri (fun v h -> match h with Some _ -> recompute_mu t v | None -> ()) t.reports

(* Maintain reports and pointers across a topological change. *)
let on_applied t info =
  match info with
  | Workload.Leaf_added { leaf; _ } -> report t leaf (estimate t leaf)
  | Workload.Internal_added { below; fresh } ->
      let p = Dtree.parent_id t.tree fresh in
      assert (p >= 0);  (* fresh was spliced above below, so it has a parent *)
      let hp = reports_of t p in
      Hashtbl.remove hp below;
      if mu_of t p = below then t.mu.(p) <- -1;
      t.report_messages <- t.report_messages + 1;
      Hashtbl.replace hp fresh (estimate t fresh);
      recompute_mu t p;
      t.report_messages <- t.report_messages + 1;
      Hashtbl.replace (reports_of t fresh) below (estimate t below);
      ensure t fresh;
      t.mu.(fresh) <- below
  | Workload.Leaf_removed { node; parent } ->
      Hashtbl.remove (reports_of t parent) node;
      ensure t node;
      t.reports.(node) <- None;
      if mu_of t parent = node then recompute_mu t parent;
      t.mu.(node) <- -1
  | Workload.Internal_removed { node; parent; children } ->
      let hp = reports_of t parent in
      Hashtbl.remove hp node;
      List.iter
        (fun c ->
          t.report_messages <- t.report_messages + 1;
          Hashtbl.replace hp c (estimate t c))
        children;
      ensure t node;
      t.reports.(node) <- None;
      t.mu.(node) <- -1;
      recompute_mu t parent
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
  let t =
    { tree; est; reports = Array.make 64 None; mu = Array.make 64 (-1); report_messages = 0 }
  in
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
