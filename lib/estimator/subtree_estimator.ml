type t = { core : Subtree_core.t; engine : Epochs.Central.t }

(* The permits of a package moving from [from_dist] to [to_dist] above the
   requester enter every node strictly below the source; a package leaving
   the root's storage also "enters" the root itself (otherwise permits
   created at the root would never be charged to it, and by induction nodes
   served out of such packages could under-count). *)
let observe_package core tree ~requester ~from_dist ~to_dist ~size =
  let top =
    match Dtree.ancestor_at tree requester from_dist with
    | Some v when v = Dtree.root tree -> from_dist
    | Some _ | None -> from_dist - 1
  in
  if to_dist <= top then begin
    (* one climb from the [to_dist] ancestor instead of an O(d) ancestor
       walk per distance: the loop body sees each node exactly once *)
    match Dtree.ancestor_at tree requester to_dist with
    | None -> assert false  (* dynlint: allow unsafe -- to_dist <= depth of requester, so the ancestor exists *)
    | Some v0 ->
        let v = ref v0 in
        for d = to_dist to top do
          let u = !v in
          Subtree_core.observe core ~node:u ~size;
          if d < top then begin
            let p = Dtree.parent_id tree u in
            assert (p >= 0);  (* d < top <= depth, so an ancestor remains *)
            v := p
          end
        done
  end

let create ?(beta = sqrt 3.0) ?(on_change = fun _ -> ()) ?(on_epoch = fun () -> ())
    ?(on_applied = fun _ -> ()) ~tree () =
  if beta <= 1.0 then invalid_arg "Subtree_estimator.create: beta must exceed 1";
  let core = Subtree_core.create ~on_change ~tree in
  let hooks =
    {
      Controller.Central.on_grant =
        (fun info ->
          Subtree_core.note_applied core info;
          on_applied info);
      on_package_down =
        (fun ~requester ~from_dist ~to_dist ~size ->
          observe_package core tree ~requester ~from_dist ~to_dist ~size);
      on_package_event = (fun _ -> ());
    }
  in
  let budget n =
    let m = max 2 (int_of_float ((1.0 -. (1.0 /. beta)) *. float_of_int n)) in
    (m, max 1 (m / 2))
  in
  let boundary e =
    Subtree_core.start_epoch core;
    (* broadcast + upcast delivering omega_0 to every node *)
    Epochs.Central.charge e (2 * Dtree.size tree);
    on_epoch ()
  in
  { core; engine = Epochs.Central.create ~hooks:(fun _ -> hooks) ~budget ~boundary ~tree () }

let submit t op = Epochs.Central.request t.engine op
let estimate t v = Subtree_core.estimate t.core v
let super_weight t v = Subtree_core.super_weight t.core v
let epochs t = Epochs.Central.epochs t.engine
let moves t = Epochs.Central.moves t.engine
