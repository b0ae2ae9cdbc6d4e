type request = {
  op : Workload.op;
  k : Types.outcome -> unit;
  mutable main_granted : bool;
}

type t = {
  net : Net.t;
  w : int;
  mutable main : Dist.t;
  mutable counter : Dist.t;
  mutable stage : Iterate.stage;
  mutable stage_budget : int;
  mutable m_i : int;
  mutable epochs : int;
  mutable rotating : bool;
  mutable main_exhausted : bool;  (* reason flag for the pending rotation *)
  mutable dead : bool;
  mutable trivial : bool;  (* W = 0 endgame: one direct root-walk permit *)
  mutable wave_charged : bool;
  mutable outstanding : int;
  mutable applying : int;
  mutable granted : int;
  mutable rejected : int;
  mutable overhead : int;
  held : request Queue.t;  (* requests parked during a rotation *)
}

let tree t = Net.tree t.net

let hold_config name =
  { Dist.default_config with auto_apply = false; exhaustion = `Hold; name }

let tag_universe =
  Dist.tag_universe ~name:"main" @ Dist.tag_universe ~name:"counter"

let make_pair t m_budget stage_w =
  let n = Dtree.size (tree t) in
  let u = max 4 (2 * n) in
  t.main <-
    Dist.create ~config:(hold_config "main")
      ~params:(Params.make ~m:m_budget ~w:stage_w ~u)
      ~net:t.net ();
  t.counter <-
    Dist.create ~config:(hold_config "counter")
      ~params:(Params.make ~m:(u / 2) ~w:(u / 4) ~u)
      ~net:t.net ()

let create ~m ~w ~net () =
  if m < 0 || w < 0 then invalid_arg "Dist_adaptive.create: bad parameters";
  let n = Dtree.size (Net.tree net) in
  let u = max 4 (2 * n) in
  let budget, stage_w, stage, dead, trivial =
    match Iterate.schedule ~w m with
    | Iterate.Reject -> (0, 1, Iterate.Final, true, false)
    | Iterate.Trivial -> (0, 1, Iterate.Final, false, true)
    | Iterate.Stage (stage, budget, stage_w) -> (budget, stage_w, stage, false, false)
  in
  {
    net;
    w;
    main =
      Dist.create ~config:(hold_config "main")
        ~params:(Params.make ~m:budget ~w:stage_w ~u)
        ~net ();
    counter =
      Dist.create ~config:(hold_config "counter")
        ~params:(Params.make ~m:(u / 2) ~w:(u / 4) ~u)
        ~net ();
    stage;
    stage_budget = budget;
    m_i = m;
    epochs = 0;
    rotating = false;
    main_exhausted = false;
    dead;
    trivial;
    wave_charged = false;
    outstanding = 0;
    applying = 0;
    granted = 0;
    rejected = 0;
    overhead = 0;
    held = Queue.create ();
  }

let charge_wave t =
  if not t.wave_charged then begin
    t.wave_charged <- true;
    t.overhead <- t.overhead + Dtree.size (tree t)
  end

let finish t r outcome =
  t.outstanding <- t.outstanding - 1;
  (match outcome with
  | Types.Granted -> t.granted <- t.granted + 1
  | Types.Rejected -> t.rejected <- t.rejected + 1
  | Types.Exhausted -> ());
  r.k outcome

(* Apply a doubly-granted topological change once neither controller has a
   lock conflict. *)
let rec apply_change t r =
  match Dist.try_apply ~partner:t.counter t.main r.op with
  | Some _ ->
      t.applying <- t.applying - 1;
      finish t r Types.Granted
  | None -> Net.schedule t.net ~delay:2 (fun () -> apply_change t r)

let rec route t r =
  if r.main_granted then
    (* The permit is already secured: only change counting and application
       remain. If the epochs have ended (dead, or trivial endgame) there is
       no counter left — apply directly; rejecting now would strand a
       granted permit and break the liveness window. *)
    if t.dead || t.trivial then begin
      t.applying <- t.applying + 1;
      apply_trivial t r
    end
    else if t.rotating then Queue.push r t.held
    else route_counter t r
  else if t.dead then begin
    charge_wave t;
    finish t r Types.Rejected
  end
  else if t.rotating then Queue.push r t.held
  else if t.trivial then begin
    (* the (1,0)-controller: the last permit walks from the root *)
    t.trivial <- false;
    t.dead <- true;
    t.overhead <- t.overhead + Dtree.depth (tree t) (Workload.request_site (tree t) r.op);
    if Workload.is_topological r.op then begin
      t.applying <- t.applying + 1;
      apply_trivial t r
    end
    else finish t r Types.Granted
  end
  else
    Dist.submit t.main r.op ~k:(fun outcome ->
        match outcome with
        | Types.Granted ->
            if Workload.is_topological r.op then begin
              r.main_granted <- true;
              if t.rotating then Queue.push r t.held else route_counter t r
            end
            else finish t r Types.Granted
        | Types.Exhausted ->
            (* park first: the rotation can complete synchronously *)
            Queue.push r t.held;
            trigger_rotation t ~main_exhausted:true
        | Types.Rejected -> assert false)  (* dynlint: allow unsafe -- main controller runs in report mode and never rejects *)

and apply_trivial t r =
  (* no controller state to consult: apply as soon as the op is valid *)
  if Workload.valid_op (tree t) r.op then begin
    let info = Workload.apply_info (tree t) r.op in
    (match info with
    | Workload.Leaf_removed { node; parent } | Workload.Internal_removed { node; parent; _ }
      ->
        Net.node_deleted t.net node ~parent
    | _ -> ());
    t.applying <- t.applying - 1;
    finish t r Types.Granted
  end
  else Net.schedule t.net ~delay:2 (fun () -> apply_trivial t r)

and route_counter t r =
  Dist.submit t.counter r.op ~k:(fun outcome ->
      match outcome with
      | Types.Granted ->
          t.applying <- t.applying + 1;
          apply_change t r
      | Types.Exhausted ->
          (* between U_i/4 and U_i/2 changes happened: rotate the epoch.
             Park first: the rotation can complete synchronously. *)
          Queue.push r t.held;
          trigger_rotation t ~main_exhausted:false
      | Types.Rejected -> assert false)  (* dynlint: allow unsafe -- counter runs in report mode and never rejects *)

and trigger_rotation t ~main_exhausted =
  t.main_exhausted <- t.main_exhausted || main_exhausted;
  if not t.rotating then begin
    t.rotating <- true;
    await_drain t
  end

and await_drain t =
  if
    Dist.outstanding t.main = 0
    && Dist.outstanding t.counter = 0
    && t.applying = 0
  then rotate t
  else Net.schedule t.net ~delay:2 (fun () -> await_drain t)

and rotate t =
  let n = Dtree.size (tree t) in
  Central.Log.debug (fun m ->
      m "epoch %d rotation: n=%d, budget left %d, main exhausted %b" t.epochs n
        (Dist.leftover t.main) t.main_exhausted);
  (match Net.sink t.net with
  | None -> ()
  | Some s ->
      Telemetry.Sink.event s ~time:(Net.now t.net)
        (Telemetry.Event.Epoch { ctrl = "dist-adaptive"; epoch = t.epochs + 1; n });
      Telemetry.Metrics.inc
        (Telemetry.Metrics.counter (Telemetry.Sink.metrics s) "ctrl_epochs_total"));
  (* broadcast + upcast to count nodes and unused permits, plus the
     whiteboard-reset broadcast (Appendix A) *)
  t.overhead <- t.overhead + (5 * n);
  let leftover = Dist.leftover t.main in
  t.m_i <- leftover;
  t.epochs <- t.epochs + 1;
  let next =
    if t.main_exhausted then
      Iterate.schedule ~w:t.w ~exhausted:(t.stage, t.stage_budget) leftover
    else
      match t.stage with
      | Iterate.Final ->
          (* epoch rotation only: keep the final stage, re-guess U *)
          Iterate.Stage (Iterate.Final, leftover, max 1 t.w)
      | Iterate.Halving -> Iterate.schedule ~w:t.w leftover
  in
  t.main_exhausted <- false;
  (match next with
  | Iterate.Reject ->
      t.dead <- true;
      charge_wave t
  | Iterate.Trivial -> t.trivial <- true
  | Iterate.Stage (stage, budget, stage_w) ->
      t.stage <- stage;
      t.stage_budget <- budget;
      make_pair t budget stage_w);
  t.rotating <- false;
  (* release the parked requests into the new epoch *)
  let parked = Queue.create () in
  Queue.transfer t.held parked;
  Queue.iter (fun r -> Net.schedule t.net ~delay:1 (fun () -> route t r)) parked

let submit t op ~k =
  t.outstanding <- t.outstanding + 1;
  let r = { op; k; main_granted = false } in
  Net.schedule t.net ~delay:1 (fun () -> route t r)

let granted t = t.granted
let rejected t = t.rejected
let outstanding t = t.outstanding
let epochs t = t.epochs
let rejecting t = t.dead
let overhead_messages t = t.overhead
