type t = { labels : Ancestry_labeling.t; tree : Dtree.t }

let create ~tree () = { labels = Ancestry_labeling.create ~tree (); tree }
let submit t op = Ancestry_labeling.submit t.labels op

let contains (lo, hi) (lo', hi') = lo <= lo' && hi' <= hi

let next_hop t ~at ~dst =
  if at = dst then invalid_arg "Tree_routing.next_hop: already at destination";
  if not (Dtree.live t.tree at && Dtree.live t.tree dst) then
    invalid_arg "Tree_routing.next_hop: dead endpoint";
  let here = Ancestry_labeling.label t.labels at in
  let target = Ancestry_labeling.label t.labels dst in
  if not (contains here target) then
    (* destination outside our subtree: up *)
    match Dtree.parent t.tree at with
    | Some p -> p
    | None -> invalid_arg "Tree_routing.next_hop: unroutable address"
  else
    (* the unique child whose interval contains the target *)
    let child =
      Dtree.fold_children t.tree at ~init:None ~f:(fun acc c ->
          match acc with
          | Some _ -> acc
          | None ->
              if contains (Ancestry_labeling.label t.labels c) target then Some c
              else None)
    in
    match child with
    | Some c -> c
    | None -> invalid_arg "Tree_routing.next_hop: no child covers the destination"

let route t ~src ~dst =
  if not (Dtree.live t.tree src && Dtree.live t.tree dst) then
    invalid_arg "Tree_routing.route: dead endpoint";
  let bound = 2 * Dtree.size t.tree in
  let rec go at acc steps =
    if steps > bound then failwith "Tree_routing.route: routing loop"
    else if at = dst then List.rev acc
    else
      let nxt = next_hop t ~at ~dst in
      go nxt (nxt :: acc) (steps + 1)
  in
  go src [] 0

let address_bits t = Ancestry_labeling.label_bits t.labels

let relabels t = Ancestry_labeling.relabels t.labels
let messages t = Ancestry_labeling.messages t.labels
