type variant = By_changes | By_doubling

type t = {
  tree : Dtree.t;
  variant : variant;
  w : int;
  reject_mode : Types.reject_mode;
  telemetry : Telemetry.Sink.t option;
  mutable inner : Iterated.t;
  mutable u_i : int;
  mutable z_i : int;  (* topological changes granted this epoch *)
  mutable nmax : int;  (* maximum size ever seen (By_doubling) *)
  mutable epoch_nmax : int;  (* nmax at the start of the current epoch *)
  mutable done_moves : int;
  mutable done_granted : int;
  mutable epochs : int;
}

let epoch_bound t m_i =
  match t.variant with
  | By_changes -> 2 * Dtree.size t.tree
  | By_doubling -> (2 * t.nmax) + m_i

(* The inner controller rejects (or reports exhaustion) in this
   controller's mode once the whole budget is spent to within W. *)
let new_inner t m_i =
  let u = max 2 (epoch_bound t m_i) in
  t.u_i <- u;
  Iterated.create ~reject_mode:t.reject_mode ?telemetry:t.telemetry ~m:m_i ~w:t.w ~u
    ~tree:t.tree ()

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
    inner = Iterated.create ~reject_mode ?telemetry ~m ~w ~u:u1 ~tree ();
    u_i = u1;
    z_i = 0;
    nmax = n0;
    epoch_nmax = n0;
    done_moves = 0;
    done_granted = 0;
    epochs = 0;
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
  t.z_i <- 0;
  t.epoch_nmax <- t.nmax;
  t.epochs <- t.epochs + 1;
  (match t.telemetry with
  | None -> ()
  | Some s ->
      Central.record_epoch s ~time:(Central.clock s) ~ctrl:"adaptive" ~epoch:t.epochs
        ~n:(Dtree.size t.tree));
  t.inner <- new_inner t leftover

(* Rotation follows a grant only, so it never follows exhaustion. *)
let serve t op =
  match Iterated.request t.inner op with
  | Types.Granted ->
      if Workload.is_topological op then begin
        t.z_i <- t.z_i + 1;
        t.nmax <- max t.nmax (Dtree.size t.tree)
      end;
      if epoch_over t then rotate t;
      Types.Granted
  | (Types.Rejected | Types.Exhausted) as outcome -> outcome

let moves t = t.done_moves + Iterated.moves t.inner

let request t op =
  match t.telemetry with
  | None -> serve t op
  | Some sink -> Central.answer sink t.tree op ~moves:(fun () -> moves t) (fun () -> serve t op)

let granted t = t.done_granted + Iterated.granted t.inner
let epochs t = t.epochs
let rejecting t = Iterated.rejecting t.inner
