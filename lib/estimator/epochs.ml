module Params = Controller.Params
module Types = Controller.Types

let params ~budget n =
  let m, w = budget n in
  (m, w, max 4 (n + m))

module Central = struct
  module Iterated = Controller.Iterated

  type t = {
    tree : Dtree.t;
    budget : int -> int * int;
    hooks : t -> Controller.Central.hooks;
    boundary : t -> unit;
    mutable ctrl : Iterated.t;
    mutable epochs : int;
    mutable done_moves : int;  (* retired controllers plus charges *)
  }

  let start t =
    t.boundary t;
    let m, w, u = params ~budget:t.budget (Dtree.size t.tree) in
    t.ctrl <-
      Iterated.create ~reject_mode:Types.Report ~hooks:(t.hooks t) ~m ~w ~u ~tree:t.tree ()

  let create ?(hooks = fun _ -> Controller.Central.no_hooks) ~budget ~boundary ~tree () =
    let t =
      {
        tree;
        budget;
        hooks;
        boundary;
        (* an M = 0 controller makes no base; [start] replaces it *)
        ctrl = Iterated.create ~m:0 ~w:0 ~u:1 ~tree ();
        epochs = 0;
        done_moves = 0;
      }
    in
    start t;
    t

  let rec request t op =
    match Iterated.request t.ctrl op with
    | Types.Granted -> ()
    | Types.Exhausted ->
        (* Observation 2.1: the controller terminates. In the centralized
           setting every granted event has already occurred, so the next
           epoch starts at once and serves the request. *)
        t.done_moves <- t.done_moves + Iterated.moves t.ctrl;
        t.epochs <- t.epochs + 1;
        start t;
        request t op
    | Types.Rejected -> assert false  (* dynlint: allow unsafe -- report mode: the controller never rejects *)

  let charge t k = t.done_moves <- t.done_moves + k
  let epochs t = t.epochs
  let moves t = t.done_moves + Iterated.moves t.ctrl
end

module Dist = struct
  module Dist = Controller.Dist
  module Rotation = Controller.Rotation

  type request = { op : Workload.op; k : Workload.applied option -> unit }

  type t = {
    net : Net.t;
    name : string;
    budget : int -> int * int;
    on_permits_down : node:Dtree.node -> size:int -> unit;
    boundary : t -> unit;
    mutable ctrl : Dist.t option;  (* [None] once retired *)
    mutable size : int;
    mutable overhead : int;
    rot : (t, request) Rotation.t;
  }

  let tree t = Net.tree t.net

  let start t =
    t.size <- Dtree.size (tree t);
    t.boundary t;
    let m, w, u = params ~budget:t.budget t.size in
    t.ctrl <-
      (if m <= 0 then None
       else
         let params = Params.make ~m ~w ~u in
         match t.ctrl with
         | Some retired -> Some (Dist.restart retired ~params)
         | None ->
             Some
               (Dist.create
                  ~config:
                    { Dist.exhaustion = `Hold; name = t.name; on_permits_down = t.on_permits_down }
                  ~params ~net:t.net ()))

  let drained t = match t.ctrl with None -> true | Some ctrl -> Dist.outstanding ctrl = 0

  let route t r =
    match t.ctrl with
    | None -> r.k None
    | Some _ when Rotation.rotating t.rot -> Rotation.park t.rot t r
    | Some _ when not (Workload.valid_op (tree t) r.op) -> r.k None
    | Some ctrl ->
        Dist.submit ctrl r.op ~k:(fun outcome ->
            match outcome with
            | Types.Granted ->
                (* the granting controller applies the change; its pending
                   application holds the rotation back *)
                Dist.apply ctrl r.op ~k:(fun change -> r.k (Some change))
            | Types.Exhausted ->
                (* the epoch's controller has terminated: wait for the next *)
                Rotation.park t.rot t r
            | Types.Rejected -> assert false)  (* dynlint: allow unsafe -- `Hold mode: the controller never rejects *)

  let create ?(on_permits_down = fun ~node:_ ~size:_ -> ()) ~name ~budget ~boundary ~net () =
    let t =
      {
        net;
        name;
        budget;
        on_permits_down;
        boundary;
        ctrl = None;
        size = 0;
        overhead = 0;
        rot = Rotation.create ~net ~name ~drained ~next:start ~route;
      }
    in
    start t;
    t

  let submit t op ~k = Net.schedule t.net ~delay:1 (fun () -> route t { op; k })
  let retire t = t.ctrl <- None
  let charge t k = t.overhead <- t.overhead + k
  let epochs t = Rotation.epochs t.rot
  let size t = t.size
  let overhead t = t.overhead
end
