module Params = Controller.Params
module Types = Controller.Types

let params ~budget n =
  let m, w = budget n in
  (m, w, max 4 (n + m))

module Central = struct
  module Terminating = Controller.Terminating

  type t = {
    tree : Dtree.t;
    budget : int -> int * int;
    hooks : t -> Controller.Central.hooks;
    boundary : t -> unit;
    mutable ctrl : Terminating.t;
    mutable epochs : int;
    mutable done_moves : int;  (* retired controllers plus charges *)
  }

  let start t =
    t.boundary t;
    let m, w, u = params ~budget:t.budget (Dtree.size t.tree) in
    let make_base ~m ~w =
      Controller.Central.create ~reject_mode:Types.Report ~hooks:(t.hooks t)
        ~params:(Params.make ~m ~w ~u) ~tree:t.tree ()
    in
    t.ctrl <- Terminating.create_custom ~make_base ~m ~w ~tree:t.tree ()

  let create ?(hooks = fun _ -> Controller.Central.no_hooks) ~budget ~boundary ~tree () =
    let t =
      {
        tree;
        budget;
        hooks;
        boundary;
        (* an M = 0 controller makes no base; [start] replaces it *)
        ctrl = Terminating.create ~m:0 ~w:0 ~u:1 ~tree ();
        epochs = 0;
        done_moves = 0;
      }
    in
    start t;
    t

  let rec request t op =
    match Terminating.request t.ctrl op with
    | Terminating.Granted -> ()
    | Terminating.Terminated ->
        t.done_moves <- t.done_moves + Terminating.moves t.ctrl;
        t.epochs <- t.epochs + 1;
        start t;
        request t op

  let charge t k = t.done_moves <- t.done_moves + k
  let epochs t = t.epochs
  let moves t = t.done_moves + Terminating.moves t.ctrl
end

module Dist = struct
  module Dist = Controller.Dist

  type request = { op : Workload.op; k : Workload.applied option -> unit }

  type t = {
    net : Net.t;
    name : string;
    budget : int -> int * int;
    on_permits_down : node:Dtree.node -> size:int -> unit;
    boundary : t -> unit;
    mutable ctrl : Dist.t option;  (* [None] once retired *)
    mutable size : int;
    mutable epochs : int;
    mutable rotating : bool;
    mutable applying : int;  (* granted, not yet applied *)
    mutable overhead : int;
    held : request Queue.t;
  }

  let tree t = Net.tree t.net

  let start t =
    t.size <- Dtree.size (tree t);
    t.boundary t;
    let m, w, u = params ~budget:t.budget t.size in
    t.ctrl <-
      (if m <= 0 then None
       else
         Some
           (Dist.create
              ~config:
                {
                  Dist.auto_apply = false;
                  exhaustion = `Hold;
                  name = t.name;
                  on_permits_down = t.on_permits_down;
                }
              ~params:(Params.make ~m ~w ~u) ~net:t.net ()))

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
        epochs = 0;
        rotating = false;
        applying = 0;
        overhead = 0;
        held = Queue.create ();
      }
    in
    start t;
    t

  (* The granting controller applies the change: a rotation waits for every
     grant to be applied, so it is still the current one. *)
  let rec apply t ctrl r =
    if Dist.can_apply ctrl r.op then begin
      let info = Workload.apply_info (tree t) r.op in
      (match info with
      | Workload.Leaf_removed { node; parent } | Workload.Internal_removed { node; parent; _ }
        ->
          Net.node_deleted t.net node ~parent
      | Workload.Leaf_added _ | Workload.Internal_added _ | Workload.Event_occurred _ -> ());
      Dist.note_applied ctrl info;
      t.applying <- t.applying - 1;
      r.k (Some info)
    end
    else Net.schedule t.net ~delay:2 (fun () -> apply t ctrl r)

  let rec route t r =
    match t.ctrl with
    | None -> r.k None
    | Some _ when t.rotating -> Queue.push r t.held
    | Some _ when not (Workload.valid_op (tree t) r.op) -> r.k None
    | Some ctrl ->
        Dist.submit ctrl r.op ~k:(fun outcome ->
            match outcome with
            | Types.Granted ->
                t.applying <- t.applying + 1;
                apply t ctrl r
            | Types.Exhausted ->
                (* the epoch's controller has terminated. Park the
                   request first: the rotation completes synchronously
                   when it was the last one outstanding. *)
                Queue.push r t.held;
                if not t.rotating then begin
                  t.rotating <- true;
                  await_drain t
                end
            | Types.Rejected -> assert false)  (* dynlint: allow unsafe -- `Hold mode: the controller never rejects *)

  and await_drain t =
    match t.ctrl with
    | Some ctrl when Dist.outstanding ctrl > 0 || t.applying > 0 ->
        Net.schedule t.net ~delay:2 (fun () -> await_drain t)
    | Some _ | None -> rotate t

  and rotate t =
    t.epochs <- t.epochs + 1;
    (match Net.sink t.net with
    | None -> ()
    | Some s ->
        let n = Dtree.size (tree t) in
        Telemetry.Sink.event s ~time:(Net.now t.net)
          (Telemetry.Event.Epoch { ctrl = t.name; epoch = t.epochs; n });
        Telemetry.Metrics.inc
          (Telemetry.Metrics.counter (Telemetry.Sink.metrics s) "ctrl_epochs_total"));
    start t;
    t.rotating <- false;
    let parked = Queue.create () in
    Queue.transfer t.held parked;
    Queue.iter (fun r -> Net.schedule t.net ~delay:1 (fun () -> route t r)) parked

  let submit t op ~k = Net.schedule t.net ~delay:1 (fun () -> route t { op; k })
  let retire t = t.ctrl <- None
  let charge t k = t.overhead <- t.overhead + k
  let epochs t = t.epochs
  let size t = t.size
  let overhead t = t.overhead
end
