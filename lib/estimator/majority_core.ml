type decision = Commit | Abort

type t = {
  mutable yes : int;  (* every voter ever admitted *)
  mutable no : int;
  mutable remaining : int;  (* joins the controllers may still admit *)
  mutable root_yes : int;  (* tally as known at the root (epoch boundary) *)
  mutable root_no : int;
  mutable joins : int;
  mutable decision : decision option;
}

let create ~m ~tree ~initial_votes =
  let t =
    { yes = 0; no = 0; remaining = m; root_yes = 0; root_no = 0; joins = 0; decision = None }
  in
  Dtree.iter_nodes tree ~f:(fun v ->
      if initial_votes v then t.yes <- t.yes + 1 else t.no <- t.no + 1);
  t

let budget t n =
  let m = min t.remaining (max 1 (n / 2)) in
  (m, max 1 (m / 2))

(* The root's knowledge: the exact tally as of the last boundary plus a
   sound bound on future voters. *)
let boundary t =
  t.root_yes <- t.yes;
  t.root_no <- t.no;
  if t.decision = None then begin
    let horizon = t.root_yes + t.root_no + t.remaining in
    if 2 * t.root_yes > horizon then t.decision <- Some Commit
    else if 2 * t.root_no >= horizon then t.decision <- Some Abort
  end

let admit t ~vote =
  if vote then t.yes <- t.yes + 1 else t.no <- t.no + 1;
  t.joins <- t.joins + 1;
  t.remaining <- t.remaining - 1;
  if t.remaining = 0 then boundary t;
  t.remaining = 0

let remaining t = t.remaining
let decision t = t.decision
let joins t = t.joins
let ground_truth t = if t.yes > t.no then Commit else Abort
