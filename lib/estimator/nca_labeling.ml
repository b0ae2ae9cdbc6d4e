type entry = { path : int; pos : int }

type state = {
  tree : Dtree.t;
  labels : (Dtree.node, entry array) Hashtbl.t;
  members : (int, Dtree.node array ref) Hashtbl.t;  (* path id -> nodes by position *)
  mutable next_path : int;
  mutable relabels : int;
}

type t = { state : state; engine : Epochs.Central.t }

let fresh_path t =
  let id = t.next_path in
  t.next_path <- id + 1;
  id

let push_member t path v =
  match Hashtbl.find_opt t.members path with
  | Some arr -> arr := Array.append !arr [| v |]
  | None -> Hashtbl.replace t.members path (ref [| v |])

let pop_member t path =
  match Hashtbl.find_opt t.members path with
  | Some arr ->
      let n = Array.length !arr in
      if n <= 1 then Hashtbl.remove t.members path else arr := Array.sub !arr 0 (n - 1)
  | None -> ()

let member t path pos = !(Hashtbl.find t.members path).(pos)

(* Subtree sizes: each node, visited after its descendants, adds itself to
   what they handed it and hands its total to its parent. *)
let add_size sizes v p =
  let s = sizes.(v) + 1 in
  sizes.(v) <- s;
  if p >= 0 then sizes.(p) <- sizes.(p) + s

(* Heavy-path relabeling: each node's heavy child is the one with the
   largest subtree (the snapshot the Theorem 5.4 protocol maintains up to a
   constant factor). Costs 2n messages. *)
let relabel t e =
  t.relabels <- t.relabels + 1;
  Epochs.Central.charge e (2 * Dtree.size t.tree);
  Hashtbl.reset t.labels;
  Hashtbl.reset t.members;
  let sizes = Array.make (Dtree.ever_created t.tree) 0 in
  Dtree.iter_postorder t.tree ~env:sizes ~f:add_size;
  let rec go v prefix path pos =
    let label = Array.append prefix [| { path; pos } |] in
    Hashtbl.replace t.labels v label;
    push_member t path v;
    let heavy =
      Dtree.fold_children t.tree v ~init:(-1) ~f:(fun best c ->
          if best < 0 || sizes.(c) > sizes.(best) then c else best)
    in
    if heavy >= 0 then
      Dtree.iter_children t.tree v ~f:(fun c ->
          if c = heavy then go c prefix path (pos + 1)
          else go c label (fresh_path t) 0)
  in
  go (Dtree.root t.tree) [||] (fresh_path t) 0

let note_applied t e info =
  match info with
  | Workload.Leaf_added { parent; leaf } ->
      (* a fresh leaf starts its own singleton heavy path below its parent *)
      let p = fresh_path t in
      Hashtbl.replace t.labels leaf
        (Array.append (Hashtbl.find t.labels parent) [| { path = p; pos = 0 } |]);
      push_member t p leaf
  | Workload.Leaf_removed { node; _ } ->
      (* a leaf is always the last node of its heavy path *)
      let label = Hashtbl.find t.labels node in
      let last = label.(Array.length label - 1) in
      pop_member t last.path;
      Hashtbl.remove t.labels node
  | Workload.Internal_added _ | Workload.Internal_removed _ -> relabel t e
  | Workload.Event_occurred _ -> ()

let create ~tree () =
  let state =
    {
      tree;
      labels = Hashtbl.create 64;
      members = Hashtbl.create 64;
      next_path = 0;
      relabels = -1;  (* the initial labeling is no relabel *)
    }
  in
  let engine =
    Epochs.Central.create
      ~hooks:(fun e -> { Controller.Central.no_hooks with on_grant = note_applied state e })
      ~budget:(fun n ->
        let m = max 2 (n / 2) in
        (m, max 1 (m / 2)))
      ~boundary:(relabel state) ~tree ()
  in
  { state; engine }

let submit t op = Epochs.Central.request t.engine op

(* NCA from the two labels. At the first differing entry: if both name the
   same heavy path, the NCA sits at the smaller position on it; if they name
   different paths, the two nodes branched off the same node via different
   light edges, and that node is the previous (common) entry. If one label
   is a prefix of the other, that node itself is the NCA. *)
let nca { state = t; _ } u v =
  let lu = Hashtbl.find t.labels u and lv = Hashtbl.find t.labels v in
  let len = min (Array.length lu) (Array.length lv) in
  let rec go k =
    if k = len then if Array.length lu <= Array.length lv then u else v
    else if lu.(k) = lv.(k) then go (k + 1)
    else if lu.(k).path = lv.(k).path then
      member t lu.(k).path (min lu.(k).pos lv.(k).pos)
    else begin
      (* both labels start on the root's heavy path, so k >= 1 here *)
      assert (k > 0);
      member t lu.(k - 1).path lu.(k - 1).pos
    end
  in
  go 0

let label_entries t v = Array.length (Hashtbl.find t.state.labels v)

let max_label_bits t =
  let bits = 2 * Stats.ceil_log2 (max 2 (2 * Dtree.size t.state.tree)) in
  Hashtbl.fold (fun _ l acc -> max acc (Array.length l * bits)) t.state.labels 0

let relabels t = t.state.relabels
let messages t = Epochs.Central.moves t.engine
