(* Per-node counters are dense int arrays indexed by the arena node id
   (bounded by [Dtree.ever_created], grown on demand): [estimate] — the
   innermost read of the permit-observation hot loop — is two array reads,
   no hashing and no [Some] box per lookup. *)
type t = {
  tree : Dtree.t;
  on_change : Dtree.node -> unit;
  mutable omega0 : int array;
  mutable s : int array;  (* permits seen passing down via v *)
  mutable sw : int array;  (* ground truth, analysis only *)
}

let create ~on_change ~tree =
  { tree; on_change; omega0 = Array.make 64 0; s = Array.make 64 0; sw = Array.make 64 0 }

let get a v = if v < Array.length a then a.(v) else 0

let ensure t v =
  if v >= Array.length t.omega0 then begin
    let cap = max 64 (max (2 * Array.length t.omega0) (v + 1)) in
    let grow a =
      let bigger = Array.make cap 0 in
      Array.blit a 0 bigger 0 (Array.length a);
      bigger
    in
    t.omega0 <- grow t.omega0;
    t.s <- grow t.s;
    t.sw <- grow t.sw
  end

let start_epoch t =
  Array.fill t.omega0 0 (Array.length t.omega0) 0;
  Array.fill t.s 0 (Array.length t.s) 0;
  Array.fill t.sw 0 (Array.length t.sw) 0;
  let rec fill v =
    let s = Dtree.fold_children t.tree v ~init:1 ~f:(fun acc c -> acc + fill c) in
    ensure t v;
    t.omega0.(v) <- s;
    t.sw.(v) <- s;
    s
  in
  ignore (fill (Dtree.root t.tree))

let observe t ~node ~size =
  ensure t node;
  t.s.(node) <- t.s.(node) + size;
  t.on_change node

(* [v] inclusive up to the root, allocation-free *)
let bump_ancestors t v =
  let u = ref v in
  while !u >= 0 do
    ensure t !u;
    t.sw.(!u) <- t.sw.(!u) + 1;
    u := Dtree.parent_id t.tree !u
  done

let note_applied t info =
  match info with
  | Workload.Leaf_added { leaf; parent } ->
      ensure t leaf;
      t.sw.(leaf) <- 1;
      t.omega0.(leaf) <- 1;
      bump_ancestors t parent
  | Workload.Internal_added { fresh; _ } ->
      ensure t fresh;
      t.sw.(fresh) <- Dtree.subtree_size t.tree fresh;
      t.omega0.(fresh) <- Dtree.subtree_size t.tree fresh;
      let p = Dtree.parent_id t.tree fresh in
      if p >= 0 then bump_ancestors t p
  | Workload.Leaf_removed _ | Workload.Internal_removed _ | Workload.Event_occurred _ -> ()

let estimate t v = get t.omega0 v + get t.s v
let super_weight t v = get t.sw v
