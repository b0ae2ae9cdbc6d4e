(** The epoch loop of the Section 5 applications, once per transport.

    Every application runs one terminating [(M,W)]-controller per epoch
    (Observation 2.1) and starts the next epoch when it terminates. An
    engine owns that loop; a protocol supplies only

    - its budget: [budget n = (M, W)] for an epoch starting at size [n]
      (the controller's [U] is [max 4 (n + M)]);
    - its boundary work and charge: [boundary e] runs at the start of every
      epoch, the first included ([epochs e = 0]), before that epoch's
      controller exists, and charges its messages with [charge];
    - what it does with each applied change.

    Callbacks receive the engine itself, so a protocol never holds a
    not-yet-built controller. *)

(** Over the centralized controller: {!Controller.Iterated} in report mode
    over instrumented {!Controller.Central} bases, one moves ledger. The
    terminating controller of Observation 2.1 is that controller answering
    [Exhausted]: once the reject wave would start, [M - W <= m <= M] permits
    were granted and, in the centralized setting, every granted event has
    already occurred, so the engine rotates and serves the request in the
    next epoch. *)
module Central : sig
  type t

  val create :
    ?hooks:(t -> Controller.Central.hooks) ->
    budget:(int -> int * int) ->
    boundary:(t -> unit) ->
    tree:Dtree.t ->
    unit ->
    t
  (** [hooks e] is called once per epoch (default: none), and every base
      controller of that epoch's {!Controller.Iterated} reports to the
      hooks it returns; their [on_grant] is where a protocol sees each
      applied change. *)

  val request : t -> Workload.op -> unit
  (** Serve one change: granted immediately, after as many rotations as
      terminated controllers. *)

  val charge : t -> int -> unit
  val epochs : t -> int

  val moves : t -> int
  (** Moves of every controller so far plus everything charged. *)
end

(** Over the message-passing simulator: {!Controller.Dist} in [`Hold] mode,
    whose granted changes the engine applies with {!Controller.Dist.apply}.
    The epoch boundary is {!Controller.Rotation}'s: a request that finds
    the epoch exhausted is parked until the controller has nothing
    outstanding (a granted change still waiting to apply counts). The next
    epoch's controller is {!Controller.Dist.restart} of the retired one,
    so the whiteboards the retired one minted are wiped and minted
    again. *)
module Dist : sig
  type t

  val create :
    ?on_permits_down:(node:Dtree.node -> size:int -> unit) ->
    name:string ->
    budget:(int -> int * int) ->
    boundary:(t -> unit) ->
    net:Net.t ->
    unit ->
    t
  (** [name] prefixes the controllers' wire tags and names the [Epoch]
      events. An epoch whose budget has [M = 0] gets no controller: the
      engine retires. [on_permits_down] is passed to every controller. *)

  val submit : t -> Workload.op -> k:(Workload.applied option -> unit) -> unit
  (** [k (Some change)] fires once the granted change was applied;
      [k None] when the request was refused because the engine has retired
      or the op is no longer valid for the tree. *)

  val retire : t -> unit
  (** Drop the current controller: every request routed from now on is
      refused, and a rotation leaves the engine retired unless the budget
      has permits again. *)

  val charge : t -> int -> unit
  val epochs : t -> int

  val size : t -> int
  (** The network size at the current epoch's start. *)

  val overhead : t -> int
  (** Everything charged so far (the controllers' own messages are counted
      by the shared [Net]). *)
end
