type state = {
  tree : Dtree.t;
  labels : (Dtree.node, (int * int) list) Hashtbl.t;  (* separator id, distance *)
  mutable relabels : int;
}

type t = { state : state; engine : Epochs.Central.t }

(* Undirected tree neighbours among live nodes not yet removed from the
   decomposition. *)
let neighbours t removed v =
  let up = match Dtree.parent t.tree v with Some p -> [ p ] | None -> [] in
  List.filter (fun w -> not (Hashtbl.mem removed w)) (up @ Dtree.children t.tree v)

let component t removed start =
  let seen = Hashtbl.create 16 in
  let rec go acc = function
    | [] -> acc
    | v :: stack when Hashtbl.mem seen v -> go acc stack
    | v :: stack ->
        Hashtbl.replace seen v ();
        go (v :: acc) (neighbours t removed v @ stack)
  in
  go [] [ start ]

let centroid t removed comp =
  let total = List.length comp in
  let in_comp = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace in_comp v ()) comp;
  let sizes = Hashtbl.create 16 in
  (* subtree sizes by DFS from an arbitrary root of the component *)
  let root = List.hd comp in
  let rec size parent v =
    let s =
      List.fold_left
        (fun acc w -> if w = parent then acc else acc + size v w)
        1 (neighbours t removed v)
    in
    Hashtbl.replace sizes v s;
    s
  in
  ignore (size (-1) root);
  (* the centroid minimizes the largest piece left after its removal *)
  let best = ref (root, total) in
  let rec walk parent v =
    let pieces =
      (total - Hashtbl.find sizes v)
      :: List.filter_map
           (fun w -> if w = parent then None else Some (Hashtbl.find sizes w))
           (neighbours t removed v)
    in
    let m = List.fold_left max 0 pieces in
    if m < snd !best then best := (v, m);
    List.iter (fun w -> if w <> parent then walk v w) (neighbours t removed v)
  in
  walk (-1) root;
  fst !best

let bfs_distances t removed from_ =
  let dist = Hashtbl.create 16 in
  let q = Queue.create () in
  Hashtbl.replace dist from_ 0;
  Queue.add from_ q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let d = Hashtbl.find dist v in
    List.iter
      (fun w ->
        if not (Hashtbl.mem dist w) then begin
          Hashtbl.replace dist w (d + 1);
          Queue.add w q
        end)
      (neighbours t removed v)
  done;
  dist

let relabel t e =
  t.relabels <- t.relabels + 1;
  (* one broadcast/upcast per decomposition level: O(n log n) messages *)
  Epochs.Central.charge e (Dtree.size t.tree * Stats.ceil_log2 (max 2 (Dtree.size t.tree)));
  Hashtbl.reset t.labels;
  Dtree.iter_nodes t.tree ~f:(fun v -> Hashtbl.replace t.labels v []);
  let removed = Hashtbl.create 16 in
  let next_id = ref 0 in
  let rec decompose start =
    let comp = component t removed start in
    let c = centroid t removed comp in
    let id = !next_id in
    incr next_id;
    let dist = bfs_distances t removed c in
    Hashtbl.iter
      (fun v d -> Hashtbl.replace t.labels v ((id, d) :: Hashtbl.find t.labels v))
      dist;
    Hashtbl.replace removed c ();
    List.iter (fun w -> decompose w) (neighbours t removed c)
  in
  decompose (Dtree.root t.tree)

let create ~tree () =
  (* the initial labeling is no relabel *)
  let state = { tree; labels = Hashtbl.create 64; relabels = -1 } in
  (* deletions of degree-one vertices leave every distance (and thus every
     label) untouched: the paper's key observation *)
  let on_grant = function
    | Workload.Leaf_removed { node; _ } -> Hashtbl.remove state.labels node
    | _ -> ()
  in
  let engine =
    Epochs.Central.create
      ~hooks:(fun _ -> { Controller.Central.no_hooks with on_grant })
      ~budget:(fun n ->
        let m = max 2 (n / 2) in
        (m, max 1 (m / 2)))
      (* the network shrinks by ~half per epoch: recompute to restore
         optimal size *)
      ~boundary:(relabel state) ~tree ()
  in
  { state; engine }

let submit t op =
  (match op with
  | Workload.Remove_leaf _ | Workload.Non_topological _ -> ()
  | Workload.Add_leaf _ | Workload.Add_internal _ | Workload.Remove_internal _ ->
      invalid_arg
        (Format.asprintf
           "Distance_labeling.submit: %a is outside the shrink-only scope of Cor. 5.6"
           Workload.pp_op op));
  Epochs.Central.request t.engine op

let dist t u v =
  let lu = Hashtbl.find t.state.labels u and lv = Hashtbl.find t.state.labels v in
  let by_id = Hashtbl.create 8 in
  List.iter (fun (id, d) -> Hashtbl.replace by_id id d) lu;
  List.fold_left
    (fun acc (id, d) ->
      match Hashtbl.find_opt by_id id with
      | Some d' -> min acc (d + d')
      | None -> acc)
    max_int lv

let label_entries t v = List.length (Hashtbl.find t.state.labels v)

let max_label_bits t =
  let bits = 2 * Stats.ceil_log2 (max 2 (2 * Dtree.size t.state.tree)) in
  Hashtbl.fold (fun _ l acc -> max acc (List.length l * bits)) t.state.labels 0

let relabels t = t.state.relabels
let messages t = Epochs.Central.moves t.engine
