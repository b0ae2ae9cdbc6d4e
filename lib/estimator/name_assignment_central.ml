type state = {
  tree : Dtree.t;
  ids : (Dtree.node, int) Hashtbl.t;
  mutable based : bool;  (* the epoch's controller has made its base *)
  mutable max_ratio : float;
}

type t = { state : state; engine : Epochs.Central.t }

let budget n = (max 1 (n / 2), max 1 (n / 4))

let record_ratio s =
  let n = Dtree.size s.tree in
  let max_id = Hashtbl.fold (fun _ i acc -> max i acc) s.ids 0 in
  let r = float_of_int max_id /. float_of_int n in
  if r > s.max_ratio then s.max_ratio <- r

(* The double DFS of Theorem 5.2: identities pass through [3N+1, 4N] and
   land in [1, N]; performed atomically here, charged as the two
   traversals. *)
let renumber s e =
  let n = Dtree.size s.tree in
  Hashtbl.reset s.ids;
  let counter = ref 0 in
  ignore
    (Dtree.fold_dfs s.tree ~init:() ~f:(fun () v ->
         incr counter;
         Hashtbl.replace s.ids v !counter));
  Epochs.Central.charge e (4 * n)

let on_grant s tracker info =
  match info with
  | Workload.Leaf_added { leaf; _ } ->
      (* the new node's identity is the integer its permit carried *)
      Hashtbl.replace s.ids leaf (Interval_permits.last_granted tracker)
  | Workload.Internal_added { fresh; _ } ->
      Hashtbl.replace s.ids fresh (Interval_permits.last_granted tracker)
  | Workload.Leaf_removed { node; _ } | Workload.Internal_removed { node; _ } ->
      Hashtbl.remove s.ids node
  | Workload.Event_occurred _ -> ()

(* The epoch's permits own [N_i + 1, N_i + M] (a prefix of the paper's
   [N_i + 1, 3 N_i / 2]), tracked on the epoch's first base. When n mod 4
   is 0 or 1, M <= 2W and the waste-halving wrapper runs that base as its
   single final stage. When n mod 4 is 2 or 3 (n = 6: M = 3, 2W = 2), it
   runs a halving stage, which would make a second base if the first
   exhausted with permits left. Whether that can happen is unverified; no
   run has been seen to do it. The guard stops a second base rather than
   hand the interval out twice. *)
let hooks s _ =
  if s.based then invalid_arg "Name_assignment_central: unexpected second stage";
  s.based <- true;
  let n = Dtree.size s.tree in
  let tracker = Interval_permits.create ~base:(n + 1) ~m:(fst (budget n)) () in
  {
    Controller.Central.on_grant = on_grant s tracker;
    on_package_down = (fun ~requester:_ ~from_dist:_ ~to_dist:_ ~size:_ -> ());
    on_package_event = Interval_permits.hook tracker;
  }

let create ~tree () =
  let s = { tree; ids = Hashtbl.create 64; based = false; max_ratio = 1.0 } in
  let boundary e =
    renumber s e;
    s.based <- false
  in
  let engine = Epochs.Central.create ~hooks:(hooks s) ~budget ~boundary ~tree () in
  { state = s; engine }

let submit t op =
  Epochs.Central.request t.engine op;
  record_ratio t.state

let id t v =
  match Hashtbl.find_opt t.state.ids v with
  | Some i -> i
  | None ->
      invalid_arg (Printf.sprintf "Name_assignment_central.id: node %d has no identity" v)

let compare_binding (v1, i1) (v2, i2) =
  match Int.compare v1 v2 with 0 -> Int.compare i1 i2 | c -> c

let ids t =
  Hashtbl.fold (fun v i acc -> (v, i) :: acc) t.state.ids [] |> List.sort compare_binding

let epochs t = Epochs.Central.epochs t.engine
let moves t = Epochs.Central.moves t.engine
let max_id_ever_ratio t = t.state.max_ratio
