type variant = By_changes | By_doubling

type t = {
  tree : Dtree.t;
  variant : variant;
  w : int;
  reject_mode : Types.reject_mode;
  telemetry : Telemetry.Sink.t option;
  mutable ticks : int;  (* requests seen: event timestamps *)
  mutable inner : Iterated.t;
  mutable m_i : int;
  mutable u_i : int;
  mutable z_i : int;  (* topological changes granted this epoch *)
  mutable nmax : int;  (* maximum size ever seen (By_doubling) *)
  mutable epoch_nmax : int;  (* nmax at the start of the current epoch *)
  mutable done_moves : int;
  mutable done_granted : int;
  mutable rejected : int;
  mutable epochs : int;
  mutable wave_charged : bool;
  mutable dead : bool;  (* true permit exhaustion: reject everything *)
}

let epoch_bound t m_i =
  match t.variant with
  | By_changes -> 2 * Dtree.size t.tree
  | By_doubling -> (2 * t.nmax) + m_i

let make_iterated ?telemetry ~m ~w ~u ~tree () =
  match telemetry with
  | None -> Iterated.create ~reject_mode:Types.Report ~m ~w ~u ~tree ()
  | Some _ ->
      Iterated.create_custom ~reject_mode:Types.Report
        ~make_base:(fun ~m ~w ->
          Central.create ~reject_mode:Types.Report ?telemetry
            ~params:(Params.make ~m ~w ~u) ~tree ())
        ~m ~w ~tree ()

let new_inner t m_i =
  let u = max 2 (epoch_bound t m_i) in
  t.u_i <- u;
  make_iterated ?telemetry:t.telemetry ~m:m_i ~w:t.w ~u ~tree:t.tree ()

let create ?(variant = By_changes) ?(reject_mode = Types.Wave) ?telemetry ~m ~w ~tree () =
  if m < 0 || w < 0 then invalid_arg "Adaptive.create: bad parameters";
  let n0 = Dtree.size tree in
  let u1 =
    max 2 (match variant with By_changes -> 2 * n0 | By_doubling -> (2 * n0) + m)
  in
  {
    tree;
    variant;
    w;
    reject_mode;
    telemetry;
    ticks = 0;
    inner = make_iterated ?telemetry ~m ~w ~u:u1 ~tree ();
    m_i = m;
    u_i = u1;
    z_i = 0;
    nmax = n0;
    epoch_nmax = n0;
    done_moves = 0;
    done_granted = 0;
    rejected = 0;
    epochs = 0;
    wave_charged = false;
    dead = false;
  }

let epoch_over t =
  match t.variant with
  | By_changes -> t.z_i >= t.u_i / 4
  | By_doubling -> Dtree.size t.tree >= 2 * t.epoch_nmax

(* Close the epoch: reclaim unused permits, clear the data structure (free in
   the centralized setting) and open the next epoch with a fresh bound. *)
let rotate t =
  let leftover = Iterated.leftover t.inner in
  t.done_moves <- t.done_moves + Iterated.moves t.inner;
  t.done_granted <- t.done_granted + Iterated.granted t.inner;
  t.m_i <- leftover;
  t.z_i <- 0;
  t.epoch_nmax <- t.nmax;
  t.epochs <- t.epochs + 1;
  (match t.telemetry with
  | None -> ()
  | Some s ->
      Telemetry.Sink.event s ~time:t.ticks
        (Telemetry.Event.Epoch
           { ctrl = "adaptive"; epoch = t.epochs; n = Dtree.size t.tree });
      Telemetry.Metrics.inc
        (Telemetry.Metrics.counter (Telemetry.Sink.metrics s) "ctrl_epochs_total"));
  t.inner <- new_inner t leftover

let reject t =
  t.dead <- true;
  match t.reject_mode with
  | Types.Report -> Types.Exhausted
  | Types.Wave ->
      if not t.wave_charged then begin
        t.wave_charged <- true;
        t.done_moves <- t.done_moves + Dtree.size t.tree
      end;
      t.rejected <- t.rejected + 1;
      Types.Rejected

let request t op =
  t.ticks <- t.ticks + 1;
  if t.dead then reject t
  else
    match Iterated.request t.inner op with
    | Types.Granted ->
        if Workload.is_topological op then begin
          t.z_i <- t.z_i + 1;
          t.nmax <- max t.nmax (Dtree.size t.tree)
        end;
        if epoch_over t then rotate t;
        Types.Granted
    | Types.Exhausted ->
        (* Global permit exhaustion: the budget is spent to within W. *)
        t.done_moves <- t.done_moves + Iterated.moves t.inner;
        t.done_granted <- t.done_granted + Iterated.granted t.inner;
        t.m_i <- Iterated.leftover t.inner;
        reject t
    | Types.Rejected -> assert false  (* dynlint: allow unsafe -- inner runs in report mode, never rejects *)

let moves t = t.done_moves + if t.dead then 0 else Iterated.moves t.inner
let granted t = t.done_granted + if t.dead then 0 else Iterated.granted t.inner
let rejected t = t.rejected
let leftover t = if t.dead then t.m_i else Iterated.leftover t.inner
let epochs t = t.epochs
let rejecting t = t.dead
