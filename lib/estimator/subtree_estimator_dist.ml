let protocol_name = "subtree-est"
let tag_universe = Controller.Dist.tag_universe ~name:protocol_name

type t = { core : Subtree_core.t; engine : Epochs.Dist.t }

(* Lemma 5.3's approximation factor *)
let beta = sqrt 3.0

let create ~net () =
  let tree = Net.tree net in
  let core = Subtree_core.create ~on_change:ignore ~tree in
  let budget n =
    let m = max 1 (int_of_float ((1.0 -. (1.0 /. beta)) *. float_of_int n)) in
    (m, max 1 (m / 2))
  in
  let boundary e =
    Subtree_core.start_epoch core;
    (* broadcast + upcast delivering omega_0, plus whiteboard reset *)
    Epochs.Dist.charge e (3 * Dtree.size tree)
  in
  let on_permits_down ~node ~size =
    if Dtree.live tree node then Subtree_core.observe core ~node ~size
  in
  { core; engine = Epochs.Dist.create ~on_permits_down ~name:protocol_name ~budget ~boundary ~net () }

let submit t op ~k =
  Epochs.Dist.submit t.engine op ~k:(fun info ->
      (match info with Some info -> Subtree_core.note_applied t.core info | None -> ());
      k ())

let estimate t v = Subtree_core.estimate t.core v
let super_weight t v = Subtree_core.super_weight t.core v
let epochs t = Epochs.Dist.epochs t.engine
let overhead_messages t = Epochs.Dist.overhead t.engine
