let protocol_name = "census"
let tag_universe = Controller.Dist.tag_universe ~name:protocol_name

type decision = Majority_commit.decision = Commit | Abort
type t = { net : Net.t; core : Majority_core.t; engine : Epochs.Dist.t }

let create ~m ~net ~initial_votes () =
  if m < 0 then invalid_arg "Majority_commit_dist.create: negative budget";
  let core = Majority_core.create ~m ~tree:(Net.tree net) ~initial_votes in
  let boundary e =
    (* the first boundary is the initial upcast; rotations add the
       broadcast and the whiteboard reset *)
    let waves = if Epochs.Dist.epochs e = 0 then 1 else 3 in
    Epochs.Dist.charge e (waves * Dtree.size (Net.tree net));
    Majority_core.boundary core
  in
  {
    net;
    core;
    engine =
      Epochs.Dist.create ~name:protocol_name ~budget:(Majority_core.budget core) ~boundary
        ~net ();
  }

let submit_join t ~parent ~vote ~k =
  Epochs.Dist.submit t.engine (Workload.Add_leaf parent) ~k:(fun info ->
      if info <> None && Majority_core.admit t.core ~vote then begin
        (* the final boundary's upcast; no controller is left *)
        Epochs.Dist.charge t.engine (Dtree.size (Net.tree t.net));
        Epochs.Dist.retire t.engine
      end;
      k (info <> None))

let decision t = Majority_core.decision t.core
let joins t = Majority_core.joins t.core
let epochs t = Epochs.Dist.epochs t.engine
let overhead_messages t = Epochs.Dist.overhead t.engine
let ground_truth t = Majority_core.ground_truth t.core
