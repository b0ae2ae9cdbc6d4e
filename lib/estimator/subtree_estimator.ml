type t = { core : Subtree_core.t; engine : Epochs.Central.t }

(* The permits of a package moving from [from_dist] to [to_dist] above the
   requester enter every node strictly below the source; a package leaving
   the root's storage also "enters" the root itself (otherwise permits
   created at the root would never be charged to it, and by induction nodes
   served out of such packages could under-count). One climb from the
   requester to the source observes each such node on the way up, nearest
   first, and learns only at the source whether it is the root. *)
let observe_package core tree ~requester ~from_dist ~to_dist ~size =
  let parents = Dtree.parent_column tree in
  let v = ref requester in
  for d = 0 to from_dist - 1 do
    let u = !v in
    if d >= to_dist then Subtree_core.observe core ~node:u ~size;
    v := parents.(u);
    assert (!v >= 0)  (* the source, [from_dist] above, is an ancestor *)
  done;
  if !v = Dtree.root tree && to_dist <= from_dist then
    Subtree_core.observe core ~node:!v ~size

(* Lemma 5.3's approximation factor *)
let beta = sqrt 3.0

let create ?(on_change = fun _ -> ()) ?(on_epoch = fun () -> ()) ?(on_applied = fun _ -> ())
    ~tree () =
  let core = Subtree_core.create ~on_change ~tree in
  let hooks =
    {
      Controller.Central.on_grant =
        (fun info ->
          Subtree_core.note_applied core info;
          on_applied info);
      on_package_event =
        (function
        | Controller.Central.Split { parent; requester; from_dist; to_dist; _ } ->
            observe_package core tree ~requester ~from_dist ~to_dist
              ~size:parent.Controller.Package.size
        | Controller.Central.Became_static { pkg; node; from_dist } ->
            observe_package core tree ~requester:node ~from_dist ~to_dist:0
              ~size:pkg.Controller.Package.size
        | Controller.Central.Created _ | Controller.Central.Store_moved _ -> ());
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
let estimates t = Subtree_core.estimates t.core
let super_weight t v = Subtree_core.super_weight t.core v
let epochs t = Epochs.Central.epochs t.engine
let moves t = Epochs.Central.moves t.engine
