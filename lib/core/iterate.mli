(** Waste-halving iteration (Observation 3.4), as a functor.

    Given any base fixed-[U] [(M,W)]-controller ([W >= 1]) that can report
    exhaustion without side effects, build the full [(M,W)]-controller for
    any [W >= 0] with move complexity [O(U log^2 U log (M / (W+1)))]:

    - while the remaining budget [M_i] exceeds [2W] (and [2]), run the base
      [(M_i, M_i/2)]-controller; when it is exhausted, the unused permits
      [L <= M_i/2 + storage] become [M_{i+1}] and the data structure is
      cleared (free in the centralized setting);
    - once [M_i <= 2W] (with [W >= 1]), run a final base [(M_i, W)]
      controller whose exhaustion triggers the real reject wave;
    - for [W = 0], iterate down to [M_i = 1] and finish with the trivial
      [(1,0)]-controller (the lone permit walks from the root to the
      requester), then reject.

    The functor is instantiated with {!Central} (the paper's controller) and
    with the bin-hierarchy baseline of Afek et al.; the schedule itself is
    exposed as {!schedule}, which {!Dist_adaptive} follows too. *)

type stage = Halving | Final

type step =
  | Stage of stage * int * int
      (** run a base controller: [Stage (stage, M_i, W_i)] *)
  | Trivial  (** [W = 0] endgame: the [(1,0)]-controller *)
  | Reject  (** the budget is spent: start the reject wave *)

val schedule : w:int -> ?exhausted:stage * int -> int -> step
(** The waste-halving schedule for an overall waste bound [w]. [schedule
    ~w m] is the stage that serves a remaining budget of [m] permits.
    [schedule ~w ~exhausted:(stage, budget) m] follows a stage of that kind
    and budget that exhausted with [m] permits unused: a final stage
    rejects, and a halving stage that granted nothing escalates to the
    final stage. *)

module type BASE = sig
  type t

  val request : t -> Workload.op -> Types.outcome
  (** Must behave in [Report] mode: exhaustion leaves the state unchanged. *)

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
  (** The reject wave has started (or, in [Report] mode, would have). *)
end

module Make (B : BASE) : sig
  include S

  val create :
    ?reject_mode:Types.reject_mode ->
    ?telemetry:Telemetry.Sink.t ->
    base:(m:int -> w:int -> B.t) ->
    m:int ->
    w:int ->
    tree:Dtree.t ->
    unit ->
    t
  (** [base ~m ~w] builds the report-mode [(m, w)] base of each stage.
      With a [telemetry] sink the controller answers through
      {!Central.answer}, so a request it serves without a base (the
      [W = 0] endgame, a rejection) is recorded too, and so is the start
      of the reject wave, as a [Reject_wave] event; the sink derives the
      metrics ({!Telemetry.Sink}). *)
end
