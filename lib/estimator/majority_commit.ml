type decision = Majority_core.decision = Commit | Abort
type t = { tree : Dtree.t; core : Majority_core.t; engine : Epochs.Central.t }

let create ~m ~tree ~initial_votes () =
  if m < 0 then invalid_arg "Majority_commit.create: negative budget";
  let core = Majority_core.create ~m ~tree ~initial_votes in
  let boundary e =
    (* the first boundary is the initial upcast; rotations add the
       broadcast *)
    let waves = if Epochs.Central.epochs e = 0 then 1 else 2 in
    Epochs.Central.charge e (waves * Dtree.size tree);
    Majority_core.boundary core
  in
  let engine = Epochs.Central.create ~budget:(Majority_core.budget core) ~boundary ~tree () in
  { tree; core; engine }

let submit_join t ~parent ~vote =
  Majority_core.remaining t.core > 0
  && begin
       Epochs.Central.request t.engine (Workload.Add_leaf parent);
       (* the final boundary's upcast *)
       if Majority_core.admit t.core ~vote then
         Epochs.Central.charge t.engine (Dtree.size t.tree);
       true
     end

let decision t = Majority_core.decision t.core
let joins t = Majority_core.joins t.core
let epochs t = Epochs.Central.epochs t.engine
let messages t = Epochs.Central.moves t.engine
let ground_truth t = Majority_core.ground_truth t.core
