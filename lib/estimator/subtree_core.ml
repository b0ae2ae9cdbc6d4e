(* Each per-node fact is one dense int array indexed by the arena node id
   (bounded by [Dtree.ever_created], grown on demand). The estimate
   [omega~(v) = omega_0(v) + S(v)] is only ever read as a sum, so it is
   one column, [est]: an epoch start reseeds it to the subtree size, and
   [observe] adds the permits that pass down. [estimate] — the innermost
   read of the permit-observation hot loop — is one array read, no hashing
   and no [Some] box per lookup. *)
type t = {
  tree : Dtree.t;
  on_change : Dtree.node -> unit;
  mutable est : int array;  (* omega_0 + S *)
  mutable sw : int array;  (* ground truth, analysis only *)
}

let create ~on_change ~tree = { tree; on_change; est = Array.make 64 0; sw = Array.make 64 0 }

let get a v = if v < Array.length a then a.(v) else 0

let ensure t v =
  if v >= Array.length t.est then begin
    let cap = max 64 (max (2 * Array.length t.est) (v + 1)) in
    let grow a =
      let bigger = Array.make cap 0 in
      Array.blit a 0 bigger 0 (Array.length a);
      bigger
    in
    t.est <- grow t.est;
    t.sw <- grow t.sw
  end

(* Visited after its descendants, which have added their subtree sizes
   to its zeroed slot, [v] counts itself and hands the total to [p]. *)
let seed t v p =
  ensure t v;
  let n = t.est.(v) + 1 in
  t.est.(v) <- n;
  t.sw.(v) <- n;
  if p >= 0 then begin
    ensure t p;
    t.est.(p) <- t.est.(p) + n
  end

let start_epoch t =
  Array.fill t.est 0 (Array.length t.est) 0;
  Array.fill t.sw 0 (Array.length t.sw) 0;
  Dtree.iter_postorder t.tree ~env:t ~f:seed

let observe t ~node ~size =
  ensure t node;
  t.est.(node) <- t.est.(node) + size;
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
      t.est.(leaf) <- 1;
      bump_ancestors t parent
  | Workload.Internal_added { fresh; _ } ->
      ensure t fresh;
      let n = Dtree.subtree_size t.tree fresh in
      t.sw.(fresh) <- n;
      t.est.(fresh) <- n;
      let p = Dtree.parent_id t.tree fresh in
      if p >= 0 then bump_ancestors t p
  | Workload.Leaf_removed _ | Workload.Internal_removed _ | Workload.Event_occurred _ -> ()

let estimate t v = get t.est v
let estimates t = t.est
let super_weight t v = get t.sw v
