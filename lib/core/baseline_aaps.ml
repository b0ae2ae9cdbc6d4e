type node = Dtree.node

type core = {
  params : Params.t;
  tree : Dtree.t;
  sigma : int;
  level_cap : int;
      (* [4] sizes bins by an epsilon tuned to the budget density M/U; we
         realize this as a cap on effective bin levels, so that a single
         request can strand at most O(M/U * log U) permits in fresh bins *)
  bins : (node, int) Hashtbl.t;  (* permits currently in each node's bin *)
  depths : (node, int) Hashtbl.t;  (* memoized: depths are frozen, grow-only *)
  mutable storage : int;
  mutable moves : int;
  mutable granted : int;
}

type t = core

let create ~params ~tree =
  let u = params.Params.u in
  let sigma = max 1 (params.Params.w / (2 * u * (Stats.ceil_log2 (max u 2) + 2))) in
  let level_cap = max 2 (Stats.ceil_log2 (max 2 (params.Params.m / (max 1 u))) + 2) in
  {
    params;
    tree;
    sigma;
    level_cap;
    bins = Hashtbl.create 64;
    depths = Hashtbl.create 64;
    storage = params.Params.m;
    moves = 0;
    granted = 0;
  }

let depth t v =
  match Hashtbl.find_opt t.depths v with
  | Some d -> d
  | None ->
      let d = Dtree.depth t.tree v in
      Hashtbl.replace t.depths v d;
      d

(* Largest i with 2^i | d, for d >= 1. *)
let ruler d =
  let rec go d i = if d land 1 = 1 then i else go (d lsr 1) (i + 1) in
  go d 0

let bin_permits t v = Option.value ~default:0 (Hashtbl.find_opt t.bins v)
let refill_amount t level = (1 lsl min level t.level_cap) * t.sigma

let supervisor t v =
  let d = depth t v in
  let i = ruler d in
  let target = d - (1 lsl i) in
  let rec climb w steps = if steps = 0 then w else
    match Dtree.parent t.tree w with Some p -> climb p (steps - 1) | None -> assert false  (* dynlint: allow unsafe -- climb stays within the supervisor's depth, so every parent exists *)
  in
  (climb v (d - target), i)

(* Serve one permit to [v]. Pass 1 walks the supervisor chain without
   mutating, accumulating the total demand; only if the source can pay do we
   apply the transfers (so that exhaustion is side-effect free). *)
let draw_permit t v =
  if depth t v = 0 then
    if t.storage >= 1 then begin
      t.storage <- t.storage - 1;
      Ok ()
    end
    else Error `Exhausted
  else begin
    let rec plan cur demand chain =
      if depth t cur = 0 then `From_storage (demand, chain)
      else
        let have = bin_permits t cur in
        if have >= demand then `From_bin (cur, demand, chain)
        else
          let sup, level = supervisor t cur in
          (* cur tops itself up to its refill amount and forwards the rest *)
          let refill = refill_amount t level in
          plan sup (demand - have + refill) ((cur, level, refill) :: chain)
    in
    match plan v 1 [] with
    | `From_storage (demand, _chain) when t.storage < demand -> Error `Exhausted
    | `From_storage (demand, chain) ->
        (* Each chain bin ends holding exactly its refill amount; the one
           permit consumed by the request is already accounted for in the
           demand arithmetic ([v]'s bin ends at refill, not refill + 1). *)
        t.storage <- t.storage - demand;
        List.iter
          (fun (node, level, refill) ->
            t.moves <- t.moves + (1 lsl level);
            Hashtbl.replace t.bins node refill)
          chain;
        Ok ()
    | `From_bin (src, demand, chain) ->
        Hashtbl.replace t.bins src (bin_permits t src - demand);
        List.iter
          (fun (node, level, refill) ->
            t.moves <- t.moves + (1 lsl level);
            Hashtbl.replace t.bins node refill)
          chain;
        Ok ()
  end

let request t op =
  (match op with
  | Workload.Add_leaf _ | Workload.Non_topological _ -> ()
  | Workload.Remove_leaf _ | Workload.Add_internal _ | Workload.Remove_internal _ ->
      invalid_arg
        (Format.asprintf
           "Baseline_aaps.request: %a is outside the grow-only model of [4]"
           Workload.pp_op op));
  if not (Workload.valid_op t.tree op) then
    invalid_arg (Format.asprintf "Baseline_aaps.request: invalid op %a" Workload.pp_op op);
  let site = Workload.request_site t.tree op in
  match draw_permit t site with
  | Error `Exhausted -> Types.Exhausted
  | Ok () ->
      t.granted <- t.granted + 1;
      Workload.apply t.tree op;
      Types.Granted

let moves t = t.moves
let granted t = t.granted

let leftover t = Hashtbl.fold (fun _ p acc -> acc + p) t.bins t.storage

let base ~u ~tree ~m ~w = create ~params:(Params.make ~m ~w ~u) ~tree

module Iterated = struct
  include Iterate.Make (struct
    type nonrec t = t

    let request = request
    let moves = moves
    let granted = granted
    let leftover = leftover
  end)

  let create ?reject_mode ~m ~w ~u ~tree () =
    if u < 1 then invalid_arg "Baseline_aaps.Iterated.create: bad parameters";
    create ?reject_mode ~base:(base ~u ~tree) ~m ~w ~tree ()
end
