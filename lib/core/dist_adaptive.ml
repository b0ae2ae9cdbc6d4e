let name = "dist-adaptive"

type request = {
  op : Workload.op;
  k : Types.outcome -> unit;
  aid : int;
  node : Dtree.node;  (* the request site at submission *)
  t0 : int;  (* simulated submission time *)
  mutable main_granted : bool;
}

(* Where the waste-halving schedule stands. *)
type phase =
  | Epoch of Iterate.stage * int  (* the stage and its budget M_i *)
  | Endgame  (* W = 0: one direct root-walk permit *)
  | Dead  (* the budget is spent: every request is rejected *)

type t = {
  net : Net.t;
  w : int;
  mutable main : Dist.t;
  mutable counter : Dist.t;
  mutable phase : phase;
  mutable epochs : int;
  mutable rotating : bool;
  mutable main_exhausted : bool;  (* reason flag for the pending rotation *)
  mutable wave_charged : bool;
  mutable outstanding : int;
  mutable granted : int;
  mutable rejected : int;
  mutable overhead : int;
  mutable next_aid : int;
  held : request Queue.t;  (* requests parked during a rotation *)
}

let tree t = Net.tree t.net

let tag_universe =
  Dist.tag_universe ~name:"main" @ Dist.tag_universe ~name:"counter"

(* An epoch's main (m, w)-controller and its (U_i/2, U_i/4) change counter,
   both in hold mode, with U_i = 2 N_i. *)
let pair net ~m ~w =
  let u = max 4 (2 * Dtree.size (Net.tree net)) in
  let hold name params =
    Dist.create ~config:{ Dist.default_config with exhaustion = `Hold; name } ~params ~net ()
  in
  let main = hold "main" (Params.make ~m ~w ~u) in
  (main, hold "counter" (Params.make ~m:(u / 2) ~w:(u / 4) ~u))

let phase_of = function
  | Iterate.Stage (stage, budget, _) -> Epoch (stage, budget)
  | Iterate.Trivial -> Endgame
  | Iterate.Reject -> Dead

let create ~m ~w ~net () =
  if m < 0 || w < 0 then invalid_arg "Dist_adaptive.create: bad parameters";
  let first = Iterate.schedule ~w m in
  (* a start without an epoch still makes its (empty) pair *)
  let main, counter =
    match first with
    | Iterate.Stage (_, budget, stage_w) -> pair net ~m:budget ~w:stage_w
    | Iterate.Trivial | Iterate.Reject -> pair net ~m:0 ~w:1
  in
  {
    net;
    w;
    main;
    counter;
    phase = phase_of first;
    epochs = 0;
    rotating = false;
    main_exhausted = false;
    wave_charged = false;
    outstanding = 0;
    granted = 0;
    rejected = 0;
    overhead = 0;
    next_aid = 0;
    held = Queue.create ();
  }

let charge_wave t =
  if not t.wave_charged then begin
    t.wave_charged <- true;
    t.overhead <- t.overhead + Dtree.size (tree t);
    match Net.sink t.net with
    | None -> ()
    | Some s ->
        Central.record_wave s ~time:(Net.now t.net) ~ctrl:name ~node:(Dtree.root (tree t))
  end

(* This layer answers the caller, so it records the answer. *)
let finish t r outcome =
  t.outstanding <- t.outstanding - 1;
  (match outcome with
  | Types.Granted -> t.granted <- t.granted + 1
  | Types.Rejected -> t.rejected <- t.rejected + 1
  | Types.Exhausted -> ());
  Dist.record_answer t.net ~ctrl:name ~node:r.node ~aid:r.aid ~submitted:r.t0 outcome;
  r.k outcome

let rec route t r =
  match t.phase with
  | Endgame | Dead when r.main_granted ->
      (* The permit is already secured and no counter is left: apply
         directly; rejecting now would strand a granted permit and break
         the liveness window. *)
      apply_trivial t r
  | Dead ->
      charge_wave t;
      finish t r Types.Rejected
  | (Epoch _ | Endgame) when t.rotating -> Queue.push r t.held
  | Epoch _ when r.main_granted -> route_counter t r
  | Endgame ->
      (* the (1,0)-controller: the last permit walks from the root *)
      t.phase <- Dead;
      t.overhead <- t.overhead + Dtree.depth (tree t) (Workload.request_site (tree t) r.op);
      if Workload.is_topological r.op then apply_trivial t r else finish t r Types.Granted
  | Epoch _ ->
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
    (match Workload.apply_info (tree t) r.op with
    | Workload.Leaf_removed { node; parent } | Workload.Internal_removed { node; parent; _ }
      ->
        Net.node_deleted t.net node ~parent
    | _ -> ());
    finish t r Types.Granted
  end
  else Net.schedule t.net ~delay:2 (fun () -> apply_trivial t r)

(* A doubly-granted change applies once neither controller has a lock
   conflict. *)
and route_counter t r =
  Dist.submit t.counter r.op ~k:(fun outcome ->
      match outcome with
      | Types.Granted ->
          Dist.apply ~partner:t.counter t.main r.op ~k:(fun _ -> finish t r Types.Granted)
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
  if Dist.outstanding t.main = 0 && Dist.outstanding t.counter = 0 then rotate t
  else Net.schedule t.net ~delay:2 (fun () -> await_drain t)

and rotate t =
  let n = Dtree.size (tree t) in
  Central.Log.debug (fun m ->
      m "epoch %d rotation: n=%d, budget left %d, main exhausted %b" t.epochs n
        (Dist.leftover t.main) t.main_exhausted);
  (match Net.sink t.net with
  | None -> ()
  | Some s -> Central.record_epoch s ~time:(Net.now t.net) ~ctrl:name ~epoch:(t.epochs + 1) ~n);
  (* broadcast + upcast to count nodes and unused permits, plus the
     whiteboard-reset broadcast (Appendix A) *)
  t.overhead <- t.overhead + (5 * n);
  let leftover = Dist.leftover t.main in
  t.epochs <- t.epochs + 1;
  let next =
    match t.phase with
    | Epoch (stage, budget) when t.main_exhausted ->
        Iterate.schedule ~w:t.w ~exhausted:(stage, budget) leftover
    | Epoch (Iterate.Final, _) ->
        (* epoch rotation only: keep the final stage, re-guess U *)
        Iterate.Stage (Iterate.Final, leftover, max 1 t.w)
    | Epoch (Iterate.Halving, _) -> Iterate.schedule ~w:t.w leftover
    | Endgame | Dead -> Iterate.Reject  (* only an epoch's controllers rotate *)
  in
  t.main_exhausted <- false;
  t.phase <- phase_of next;
  (match next with
  | Iterate.Stage (_, budget, stage_w) ->
      let main, counter = pair t.net ~m:budget ~w:stage_w in
      t.main <- main;
      t.counter <- counter
  | Iterate.Trivial -> ()
  | Iterate.Reject -> charge_wave t);
  t.rotating <- false;
  (* release the parked requests into the new epoch *)
  let parked = Queue.create () in
  Queue.transfer t.held parked;
  Queue.iter (fun r -> Net.schedule t.net ~delay:1 (fun () -> route t r)) parked

let submit t op ~k =
  t.outstanding <- t.outstanding + 1;
  let r =
    {
      op;
      k;
      aid = t.next_aid;
      node = Workload.request_site (tree t) op;
      t0 = Net.now t.net;
      main_granted = false;
    }
  in
  t.next_aid <- t.next_aid + 1;
  Net.schedule t.net ~delay:1 (fun () -> route t r)

let granted t = t.granted
let rejected t = t.rejected
let outstanding t = t.outstanding
let epochs t = t.epochs
let rejecting t = match t.phase with Dead -> true | Epoch _ | Endgame -> false
let overhead_messages t = t.overhead
