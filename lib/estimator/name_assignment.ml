let protocol_name = "names"
let tag_universe = Controller.Dist.tag_universe ~name:protocol_name

type state = {
  net : Net.t;
  ids : (Dtree.node, int) Hashtbl.t;
  mutable fresh : int;  (* next unassigned integer in [N_i + 1, 3 N_i / 2] *)
  mutable max_ratio : float;
}

type t = { state : state; engine : Epochs.Dist.t }

let tree s = Net.tree s.net

(* The double DFS renaming: identities move to [3N+1, 4N] and then to
   [1, N]; both passes stay collision-free against the previous range. The
   simulator performs both atomically and charges the two traversals. *)
let renumber s e =
  let n = Dtree.size (tree s) in
  Hashtbl.reset s.ids;
  let counter = ref 0 in
  ignore
    (Dtree.fold_dfs (tree s) ~init:() ~f:(fun () v ->
         incr counter;
         Hashtbl.replace s.ids v !counter));
  Epochs.Dist.charge e (4 * n);
  s.fresh <- n + 1

let record_ratio s =
  let n = Dtree.size (tree s) in
  let max_id = Hashtbl.fold (fun _ i acc -> max i acc) s.ids 0 in
  (match Net.sink s.net with
  | None -> ()
  | Some sink ->
      Telemetry.Sink.event sink ~time:(Net.now s.net)
        (Telemetry.Event.Estimate
           { ctrl = protocol_name; node = Dtree.root (tree s); value = max_id; truth = n }));
  let r = float_of_int max_id /. float_of_int n in
  if r > s.max_ratio then s.max_ratio <- r

let boundary s e =
  renumber s e;
  if Epochs.Dist.epochs e > 0 then begin
    (* whiteboard reset between terminating controllers *)
    Epochs.Dist.charge e (Dtree.size (tree s));
    record_ratio s
  end

let create ~net () =
  let s = { net; ids = Hashtbl.create 64; fresh = 0; max_ratio = 1.0 } in
  let budget n = (max 2 (n / 2), max 1 (n / 4)) in
  {
    state = s;
    engine = Epochs.Dist.create ~name:protocol_name ~budget ~boundary:(boundary s) ~net ();
  }

let assign_new s v =
  Hashtbl.replace s.ids v s.fresh;
  s.fresh <- s.fresh + 1

let note_applied s info =
  (match info with
  | Workload.Leaf_added { leaf; _ } -> assign_new s leaf
  | Workload.Internal_added { fresh; _ } -> assign_new s fresh
  | Workload.Leaf_removed { node; _ } | Workload.Internal_removed { node; _ } ->
      Hashtbl.remove s.ids node
  | Workload.Event_occurred _ -> ());
  record_ratio s

let submit t op ~k =
  Epochs.Dist.submit t.engine op ~k:(fun info ->
      Option.iter (note_applied t.state) info;
      k ())

let id t v =
  match Hashtbl.find_opt t.state.ids v with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Name_assignment.id: node %d has no identity" v)

let compare_binding (v1, i1) (v2, i2) =
  match Int.compare v1 v2 with 0 -> Int.compare i1 i2 | c -> c

let ids t =
  Hashtbl.fold (fun v i acc -> (v, i) :: acc) t.state.ids [] |> List.sort compare_binding

let epochs t = Epochs.Dist.epochs t.engine
let overhead_messages t = Epochs.Dist.overhead t.engine
let max_id_ever_ratio t = t.state.max_ratio
