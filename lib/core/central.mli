(** The fixed-[U] centralized [(M,W)]-controller of Section 3.1.

    Requests are served by protocol [GrantOrReject]: a request at [u] is
    answered from a static package at [u] if one exists; otherwise the
    controller walks up from [u] to the closest {e filler node} (an ancestor
    hosting a mobile package whose level matches its distance) or to the
    root, then distributes the found (or freshly created) package down the
    path by the recursive splitting procedure [Proc], leaving one level-[k]
    package at distance [3*2^(k-1)*psi] above [u] for every
    [k < j(u)] and a static package at [u] itself.

    Cost accounting follows the paper's move complexity: moving a set of
    objects across one tree edge costs one move; the walk itself is free in
    the centralized setting.

    The controller owns the topological changes: a granted topological
    request is applied to the tree immediately (packages of a deleted node
    move to its parent first, Section 3.1 item 2). *)

type t

val log_src : Logs.src
(** The ["dynnet.controller"] log source: reject waves, epoch rotations and
    other rare structural events at [Debug] level. *)

module Log : Logs.LOG

(** Life-cycle events of the permit data structure, exposed so that permit
    {e contents} can ride along (the name-assignment protocol of Theorem 5.2
    attaches an integer interval to every package and splits it with the
    package). *)
type package_event =
  | Created of Package.t  (** filled from the root's storage *)
  | Split of { parent : Package.t; left : Package.t; right : Package.t }
      (** [left] stays at the landing node; [right] continues down *)
  | Became_static of { pkg : Package.t; node : Dtree.node }
  | Store_moved of { from_ : Dtree.node; to_ : Dtree.node }
      (** a deleted node's whole store was absorbed by its parent *)
  | Granted_at of Dtree.node  (** one static permit consumed at the node *)

(** Instrumentation points used by the Section 5 applications and by tests.
    [on_grant] fires after the event of a granted request occurred, with the
    concrete change (fresh/removed node identities included).
    [on_package_down] fires for every downward package transfer along the
    requester's root path: permits [size] moved from the ancestor at
    [from_dist] to the ancestor at [to_dist] ([to_dist < from_dist]).
    [on_package_event] traces the package life cycle. *)
type hooks = {
  on_grant : Workload.applied -> unit;
  on_package_down :
    requester:Dtree.node -> from_dist:int -> to_dist:int -> size:int -> unit;
  on_package_event : package_event -> unit;
}

val no_hooks : hooks

val create :
  ?track_domains:bool ->
  ?reject_mode:Types.reject_mode ->
  ?hooks:hooks ->
  ?telemetry:Telemetry.Sink.t ->
  params:Params.t ->
  tree:Dtree.t ->
  unit ->
  t
(** A fresh controller: [M] permits in the root's storage, no packages
    anywhere. [reject_mode] defaults to [Wave]. [track_domains] (default
    false) maintains the analysis domains for invariant checking.

    With a [telemetry] sink every request is recorded by {!answer} (the
    centralized controller is synchronous, so its permit spans have zero
    latency), and the package life cycle records [Package_created] /
    [Package_split] (with the [pkg_splits_total{level}] counter) /
    [Package_static] / [Package_join] and [Reject_wave] events, timed by
    {!clock}. Without a sink no telemetry code runs. *)

val request : t -> Workload.op -> Types.outcome
(** Serve one request arriving at [Workload.request_site]. In [Report] mode
    an exhausted controller answers [Exhausted] without changing any state.
    @raise Invalid_argument if a topological op is invalid for the current
    tree. *)

val moves : t -> int
val granted : t -> int
val rejected : t -> int

val storage : t -> int
(** Permits still in the root's storage. *)

val leftover : t -> int
(** Permits not yet granted: storage plus all package contents. *)

val wave_done : t -> bool
(** Whether the reject wave has been broadcast. *)

val fold_stores : t -> init:'a -> f:('a -> Dtree.node -> Store.t -> 'a) -> 'a
(** Fold over the non-empty per-node stores (for memory accounting and
    white-box tests). *)

val check_domains : t -> (unit, string) result
(** Check the Section 3.2 domain invariants.
    @raise Invalid_argument unless created with [track_domains:true]. *)

(** {2 Telemetry of the centralized stack}

    {!Central}, {!Iterated} and {!Adaptive} share these, so that a request
    is recorded once, by the layer that answers the caller. *)

val answer :
  Telemetry.Sink.t ->
  Dtree.t ->
  Workload.op ->
  moves:(unit -> int) ->
  (unit -> Types.outcome) ->
  Types.outcome
(** [answer sink tree op ~moves serve] answers [op] with [serve ()]. When no
    causal trace is ambient, the caller is the outermost layer: the request
    roots a fresh trace and records a zero-latency [Permit_span] (the
    [aid], [submitted] and [time] of which are the request's {!clock}) with
    the answer's outcome, bumps [ctrl_requests_total{ctrl,outcome}], and
    adds the growth of [moves ()] to [ctrl_moves_total]. Inside a trace it
    only serves. *)

val clock : Telemetry.Sink.t -> int
(** The time of the request being answered: its root trace id plus one.
    For a fresh sink that no network shares, the running request count. *)

val record_wave : Telemetry.Sink.t -> Dtree.t -> unit
(** Record the start of the reject wave: a [Reject_wave] event at the root
    and the [ctrl_reject_waves_total] counter. *)
