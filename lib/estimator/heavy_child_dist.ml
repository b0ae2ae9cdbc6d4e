type t = { core : Heavy_core.t; est : Subtree_estimator_dist.t }

let create ?(beta = sqrt 3.0) ~net () =
  let core = Heavy_core.create ~tree:(Net.tree net) () in
  let est =
    Subtree_estimator_dist.create ~beta
      ~on_change:(fun v -> Heavy_core.on_change core v)
      ~on_epoch:(fun () -> Heavy_core.on_epoch core)
      ~on_applied:(fun info -> Heavy_core.on_applied core info)
      ~net ()
  in
  Heavy_core.set_estimate core (fun v -> Subtree_estimator_dist.estimate est v);
  (* seed the initial epoch's reports (create ran on_epoch before wiring) *)
  Heavy_core.on_epoch core;
  { core; est }

let submit t op ~k = Subtree_estimator_dist.submit t.est op ~k
let heavy t v = Heavy_core.heavy t.core v
let light_ancestors t v = Heavy_core.light_ancestors t.core v
let max_light_ancestors t = Heavy_core.max_light_ancestors t.core

let messages t =
  Subtree_estimator_dist.overhead_messages t.est + Heavy_core.report_messages t.core

let epochs t = Subtree_estimator_dist.epochs t.est
let estimator t = t.est
