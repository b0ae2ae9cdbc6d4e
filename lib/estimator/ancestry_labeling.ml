(* Endpoint cells form a doubly-linked list in DFS order; each carries an
   integer position. Labels are the positions of a node's two cells. *)
type cell = {
  mutable pos : int;
  mutable prev : cell option;
  mutable next : cell option;
}

type state = {
  tree : Dtree.t;
  cells : (Dtree.node, cell * cell) Hashtbl.t;  (* node -> (lo, hi) *)
  mutable relabels : int;
}

type t = { state : state; engine : Epochs.Central.t }

let gap = 8

let link a b =
  a.next <- Some b;
  b.prev <- Some a

let cells_of t v =
  match Hashtbl.find_opt t.cells v with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Ancestry_labeling: node %d has no label" v)

(* Fresh DFS labeling with gap-spaced positions: 2n messages. *)
let relabel t e =
  t.relabels <- t.relabels + 1;
  Epochs.Central.charge e (2 * Dtree.size t.tree);
  Hashtbl.reset t.cells;
  let counter = ref 0 in
  let fresh_pos () =
    counter := !counter + gap;
    !counter
  in
  let last : cell option ref = ref None in
  let emit () =
    let c = { pos = fresh_pos (); prev = !last; next = None } in
    (match !last with Some l -> l.next <- Some c | None -> ());
    last := Some c;
    c
  in
  let rec go v =
    let lo = emit () in
    Dtree.iter_children t.tree v ~f:go;
    let hi = emit () in
    Hashtbl.replace t.cells v (lo, hi)
  in
  go (Dtree.root t.tree)

(* Insert a node's two fresh cells into a gap, or fail if no room. *)
let try_insert_pair after =
  match after.next with
  | None -> None
  | Some nxt ->
      if nxt.pos - after.pos >= 3 then begin
        let lo = { pos = after.pos + 1; prev = None; next = None } in
        let hi = { pos = after.pos + 2; prev = None; next = None } in
        link after lo;
        link lo hi;
        link hi nxt;
        Some (lo, hi)
      end
      else None

let try_insert_around (w_lo, w_hi) =
  match (w_lo.prev, w_hi.next) with
  | Some before, Some after
    when w_lo.pos - before.pos >= 2 && after.pos - w_hi.pos >= 2 ->
      let lo = { pos = w_lo.pos - 1; prev = None; next = None } in
      let hi = { pos = w_hi.pos + 1; prev = None; next = None } in
      link before lo;
      link lo w_lo;
      link w_hi hi;
      link hi after;
      Some (lo, hi)
  | _ -> None

let splice (lo, hi) =
  (match lo.prev with Some p -> p.next <- lo.next | None -> ());
  (match lo.next with Some n -> n.prev <- lo.prev | None -> ());
  (match hi.prev with Some p -> p.next <- hi.next | None -> ());
  (match hi.next with Some n -> n.prev <- hi.prev | None -> ())

let note_applied t e info =
  match info with
  | Workload.Leaf_added { parent; leaf } -> (
      let p_lo, _ = cells_of t parent in
      match try_insert_pair p_lo with
      | Some pair -> Hashtbl.replace t.cells leaf pair
      | None -> relabel t e)
  | Workload.Internal_added { below; fresh } -> (
      match try_insert_around (cells_of t below) with
      | Some pair -> Hashtbl.replace t.cells fresh pair
      | None -> relabel t e)
  | Workload.Leaf_removed { node; _ } | Workload.Internal_removed { node; _ } ->
      (* the paper's observation: deletions do not affect ancestry labels *)
      splice (cells_of t node);
      Hashtbl.remove t.cells node
  | Workload.Event_occurred _ -> ()

let create ~tree () =
  (* the initial labeling is no relabel *)
  let state = { tree; cells = Hashtbl.create 64; relabels = -1 } in
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

let label t v =
  let lo, hi = cells_of t.state v in
  (lo.pos, hi.pos)

let is_ancestor t ~anc ~desc =
  let a_lo, a_hi = label t anc and d_lo, d_hi = label t desc in
  a_lo <= d_lo && d_hi <= a_hi

let label_bits t =
  let max_pos = Hashtbl.fold (fun _ (_, hi) acc -> max acc hi.pos) t.state.cells 0 in
  2 * Stats.ceil_log2 (max 2 (max_pos + 1))

let relabels t = t.state.relabels
let messages t = Epochs.Central.moves t.engine
