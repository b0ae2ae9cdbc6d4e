type t = { core : Heavy_core.t; est : Subtree_estimator.t }

let create ?(beta = sqrt 3.0) ~tree () =
  let core = Heavy_core.create ~tree () in
  let est =
    Subtree_estimator.create ~beta
      ~on_change:(fun v -> Heavy_core.on_change core v)
      ~on_epoch:(fun () -> Heavy_core.on_epoch core)
      ~on_applied:(fun info -> Heavy_core.on_applied core info)
      ~tree ()
  in
  Heavy_core.set_estimate core (fun v -> Subtree_estimator.estimate est v);
  (* seed the initial epoch's reports (create ran on_epoch before wiring) *)
  Heavy_core.on_epoch core;
  { core; est }

let submit t op = Subtree_estimator.submit t.est op
let heavy t v = Heavy_core.heavy t.core v
let light_ancestors t v = Heavy_core.light_ancestors t.core v
let max_light_ancestors t = Heavy_core.max_light_ancestors t.core
let messages t = Subtree_estimator.moves t.est + Heavy_core.report_messages t.core
let epochs t = Subtree_estimator.epochs t.est
let estimator t = t.est
