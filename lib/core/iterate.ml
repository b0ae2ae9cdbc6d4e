type stage = Halving | Final
type step = Stage of stage * int * int | Trivial | Reject

let schedule ~w ?exhausted m =
  match exhausted with
  | Some (Final, _) -> Reject
  | Some (Halving, budget) when m >= budget ->
      (* No permit was granted this stage: re-running the same stage would
         loop. Escalate to the final stage (a base whose own liveness bound
         breaks down can land here; the paper's base never does). *)
      if m <= 0 then Reject else Stage (Final, m, max 1 w)
  | Some (Halving, _) | None ->
      if m <= 0 then Reject
      else if w >= 1 && m <= 2 * w then Stage (Final, m, w)
      else if w = 0 && m = 1 then Trivial
      else Stage (Halving, m, m / 2)

module type BASE = sig
  type t

  val request : t -> Workload.op -> Types.outcome
  val moves : t -> int
  val granted : t -> int
  val leftover : t -> int
end

module type S = sig
  type t

  val request : t -> Workload.op -> Types.outcome
  val moves : t -> int
  val granted : t -> int
  val rejected : t -> int
  val leftover : t -> int
  val iterations : t -> int
  val rejecting : t -> bool
end

module Make (B : BASE) = struct
  type state =
    | Inner of B.t * stage * int  (* stage budget *)
    | Endgame  (** W = 0: [trivial_left] permits served from the root *)
    | Rejecting

  type t = {
    tree : Dtree.t;
    base : m:int -> w:int -> B.t;
    w : int;
    reject_mode : Types.reject_mode;
    telemetry : Telemetry.Sink.t option;
    mutable stage : state;
    mutable trivial_left : int;
    mutable done_moves : int;  (* moves of completed stages *)
    mutable done_granted : int;
    mutable rejected : int;
    mutable iterations : int;
    mutable wave_charged : bool;
  }

  let enter t = function
    | Stage (stage, m, w) -> Inner (t.base ~m ~w, stage, m)
    | Trivial ->
        t.trivial_left <- 1;
        Endgame
    | Reject -> Rejecting

  let create ?(reject_mode = Types.Wave) ?telemetry ~base ~m ~w ~tree () =
    if m < 0 || w < 0 then invalid_arg "Iterate.create: bad parameters";
    let t =
      {
        tree;
        base;
        w;
        reject_mode;
        telemetry;
        stage = Rejecting;
        trivial_left = 0;
        done_moves = 0;
        done_granted = 0;
        rejected = 0;
        iterations = 0;
        wave_charged = false;
      }
    in
    t.stage <- enter t (schedule ~w m);
    t

  let charge_wave t =
    if not t.wave_charged then begin
      t.wave_charged <- true;
      t.done_moves <- t.done_moves + Dtree.size t.tree;
      match t.telemetry with
      | None -> ()
      | Some s ->
          Telemetry.Sink.event s ~time:(Central.clock s)
            (Telemetry.Event.Reject_wave { ctrl = "central"; node = Dtree.root t.tree })
    end

  let rec serve t op =
    match t.stage with
    | Rejecting -> (
        match t.reject_mode with
        | Types.Report -> Types.Exhausted
        | Types.Wave ->
            charge_wave t;
            t.rejected <- t.rejected + 1;
            Types.Rejected)
    | Endgame ->
        if t.trivial_left > 0 then begin
          (* The (1,0)-controller: the last permit walks from the root to the
             requester. *)
          let site = Workload.request_site t.tree op in
          t.done_moves <- t.done_moves + Dtree.depth t.tree site;
          t.done_granted <- t.done_granted + 1;
          t.trivial_left <- t.trivial_left - 1;
          Workload.apply t.tree op;
          Types.Granted
        end
        else begin
          t.stage <- Rejecting;
          serve t op
        end
    | Inner (b, stage, budget) -> (
        match B.request b op with
        | Types.Granted -> Types.Granted
        | Types.Rejected ->
            (* Base controllers are run in report mode; they never reject. *)
            assert false  (* dynlint: allow unsafe -- base controllers run in report mode and never reject *)
        | Types.Exhausted ->
            let l = B.leftover b in
            t.done_moves <- t.done_moves + B.moves b;
            t.done_granted <- t.done_granted + B.granted b;
            t.iterations <- t.iterations + 1;
            t.stage <- enter t (schedule ~w:t.w ~exhausted:(stage, budget) l);
            serve t op)

  let moves t =
    t.done_moves + (match t.stage with Inner (b, _, _) -> B.moves b | Endgame | Rejecting -> 0)

  let request t op =
    match t.telemetry with
    | None -> serve t op
    | Some sink -> Central.answer sink t.tree op ~moves:(fun () -> moves t) (fun () -> serve t op)

  let granted t =
    t.done_granted
    + (match t.stage with Inner (b, _, _) -> B.granted b | Endgame | Rejecting -> 0)

  let rejected t = t.rejected

  let leftover t =
    match t.stage with
    | Inner (b, _, _) -> B.leftover b
    | Endgame -> t.trivial_left
    | Rejecting -> 0

  let iterations t = t.iterations
  let rejecting t = match t.stage with Rejecting -> true | Inner _ | Endgame -> false
end
