type dom = {
  level : int;
  mutable nodes : Dtree.node list;  (* ordered top (closest to host) -> bottom *)
  mutable host : Dtree.node;
}

type t = {
  params : Params.t;
  tree : Dtree.t;
  doms : (int, dom) Hashtbl.t;  (* package id -> domain *)
  by_node : (Dtree.node, (int, unit) Hashtbl.t) Hashtbl.t;
}

let create ~params ~tree () =
  { params; tree; doms = Hashtbl.create 64; by_node = Hashtbl.create 256 }

let index_add t node pkg_id =
  let set =
    match Hashtbl.find_opt t.by_node node with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 4 in
        Hashtbl.replace t.by_node node s;
        s
  in
  Hashtbl.replace set pkg_id ()

let index_remove t node pkg_id =
  match Hashtbl.find_opt t.by_node node with
  | None -> ()
  | Some s ->
      Hashtbl.remove s pkg_id;
      if Hashtbl.length s = 0 then Hashtbl.remove t.by_node node

let assign t (p : Package.t) ~requester ~dist =
  let size = Params.domain_size t.params p.level in
  if dist <= size then
    invalid_arg "Domain_tracker.assign: domain would touch the requester";
  let ancestor d =
    match Dtree.ancestor_at t.tree requester d with
    | Some x -> x
    | None -> invalid_arg "Domain_tracker.assign: the requester is too shallow"
  in
  (* Nodes x on the requester->host path with 1 <= d(x, host) <= size,
     listed top -> bottom. *)
  let nodes = List.init size (fun i -> ancestor (dist - 1 - i)) in
  Hashtbl.replace t.doms p.id { level = p.level; nodes; host = ancestor dist };
  List.iter (fun x -> index_add t x p.id) nodes

let cancel t (p : Package.t) =
  match Hashtbl.find_opt t.doms p.id with
  | None -> ()
  | Some d ->
      List.iter (fun x -> index_remove t x p.id) d.nodes;
      Hashtbl.remove t.doms p.id

let drop_bottom_most_live t pkg_id d =
  (* Remove the last currently-existing node of the (top->bottom) list. *)
  let rec last_live_idx i best = function
    | [] -> best
    | x :: tl -> last_live_idx (i + 1) (if Dtree.live t.tree x then Some i else best) tl
  in
  match last_live_idx 0 None d.nodes with
  | None -> ()  (* every domain node already deleted: nothing to drop *)
  | Some idx ->
      let dropped = List.nth d.nodes idx in
      index_remove t dropped pkg_id;
      d.nodes <- List.filteri (fun i _ -> i <> idx) d.nodes

let on_add_internal t ~new_node ~child =
  match Hashtbl.find_opt t.by_node child with
  | None -> ()
  | Some set ->
      let ids = Hashtbl.fold (fun id () acc -> id :: acc) set [] in
      List.iter
        (fun id ->
          let d = Hashtbl.find t.doms id in
          let rec insert = function
            | [] -> assert false  (* dynlint: allow unsafe -- child is always present in its domain's node list *)
            | x :: tl when x = child -> new_node :: x :: tl
            | x :: tl -> x :: insert tl
          in
          d.nodes <- insert d.nodes;
          index_add t new_node id;
          drop_bottom_most_live t id d)
        ids

let hooks t =
  {
    Central.on_grant =
      (function
      | Workload.Internal_added { below; fresh } ->
          on_add_internal t ~new_node:fresh ~child:below
      | Workload.Leaf_added _ | Workload.Leaf_removed _ | Workload.Internal_removed _
      | Workload.Event_occurred _ ->
          ());
    on_package_event =
      (function
      | Central.Split { parent; left; requester; to_dist; _ } ->
          cancel t parent;
          assign t left ~requester ~dist:to_dist
      | Central.Became_static { pkg; _ } -> cancel t pkg
      | Central.Store_moved { from_; to_ } ->
          (* every package a domain names as hosted at [from_] is still
             there: a package leaves its host only to split or turn
             static, and both cancel its domain *)
          Hashtbl.iter (fun _ d -> if d.host = from_ then d.host <- to_) t.doms
      | Central.Created _ | Central.Granted_at _ -> ());
  }

let tracked t = Hashtbl.length t.doms

let check t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let exception Violation of string in
  try
    (* Invariant 1: exact domain sizes. *)
    Hashtbl.iter
      (fun id d ->
        let want = Params.domain_size t.params d.level in
        if List.length d.nodes <> want then
          raise
            (Violation
               (Printf.sprintf "package %d (level %d): domain has %d nodes, expected %d"
                  id d.level (List.length d.nodes) want)))
      t.doms;
    (* Invariant 2: same-level domains are disjoint. *)
    let seen = Hashtbl.create 256 in
    Hashtbl.iter
      (fun id d ->
        List.iter
          (fun x ->
            let key = (d.level, x) in
            match Hashtbl.find_opt seen key with
            | Some other ->
                raise
                  (Violation
                     (Printf.sprintf
                        "node %d is in two level-%d domains (packages %d and %d)" x
                        d.level other id))
            | None -> Hashtbl.replace seen key id)
          d.nodes)
      t.doms;
    (* Invariant 3: live domain nodes form a path hanging from a child of the
       host. *)
    Hashtbl.iter
      (fun id d ->
        let live = List.filter (Dtree.live t.tree) d.nodes in
        match live with
        | [] -> ()
        | top :: rest ->
            if not (Dtree.live t.tree d.host) then
              raise (Violation (Printf.sprintf "package %d: host %d is dead" id d.host));
            (match Dtree.parent t.tree top with
            | Some p when p = d.host -> ()
            | _ ->
                raise
                  (Violation
                     (Printf.sprintf
                        "package %d: top live domain node %d does not hang from host %d"
                        id top d.host)));
            ignore
              (List.fold_left
                 (fun above x ->
                   (match Dtree.parent t.tree x with
                   | Some p when p = above -> ()
                   | _ ->
                       raise
                         (Violation
                            (Printf.sprintf
                               "package %d: domain nodes %d -> %d are not parent/child"
                               id above x)));
                   x)
                 top rest))
      t.doms;
    Ok ()
  with Violation msg -> err "%s" msg
