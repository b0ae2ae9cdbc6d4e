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

    The walk runs one distance band at a time: band 0 spans distances up to
    [2 psi], band [j >= 1] spans [2^j psi < d <= 2^(j+1) psi], and a node in
    band [j] is a filler iff its {!Store.t} hosts a level-[j] package. So a
    hop is one test of the store's level mask and one read of the tree's
    parent column, and it allocates nothing. The walk also records the node
    it passes at each band's landing distance, where [Proc] later parks
    that band's package, so the descent never walks the path again.

    The controller owns the topological changes: a granted topological
    request is applied to the tree immediately (packages of a deleted node
    move to its parent first, Section 3.1 item 2). *)

type t

val log_src : Logs.src
(** The ["dynnet.controller"] log source: reject waves, epoch rotations and
    other rare structural events at [Debug] level. *)

module Log : Logs.LOG

(** Life-cycle events of the permit data structure: the one stream that
    every observer of the packages reads. The subtree estimator of
    Lemma 5.3 counts the permits that move down the requester's root path
    ([Split] and [Became_static]); the Section 3.2 {!Domain_tracker}
    follows the packages' domains. A grant raises no event: it consumes one
    static permit at its request site, and [on_grant] reports the change.
    Distances count edges up from the requester. *)
type package_event =
  | Created of Package.t  (** filled from the root's storage *)
  | Split of {
      parent : Package.t;
      left : Package.t;
      requester : Dtree.node;
      from_dist : int;
      to_dist : int;
    }
      (** [parent] moved down [requester]'s root path from the ancestor at
          [from_dist] to the one at [to_dist] ([to_dist < from_dist]) and
          split there: [left] stays at that landing node, and the other
          half continues down (its own [Split] or [Became_static] follows) *)
  | Became_static of { pkg : Package.t; node : Dtree.node; from_dist : int }
      (** [pkg] moved from the ancestor at [from_dist] down to the
          requester [node] and became static there *)
  | Store_moved of { from_ : Dtree.node; to_ : Dtree.node }
      (** a deleted node's whole store was absorbed by its parent *)

(** Instrumentation points used by the Section 5 applications and by tests.
    [on_grant] fires after the event of a granted request occurred, with the
    concrete change (fresh/removed node identities included).
    [on_package_event] receives the package life cycle. *)
type hooks = {
  on_grant : Workload.applied -> unit;
  on_package_event : package_event -> unit;
}

val no_hooks : hooks

val create :
  ?reject_mode:Types.reject_mode ->
  ?hooks:hooks ->
  ?telemetry:Telemetry.Sink.t ->
  params:Params.t ->
  tree:Dtree.t ->
  unit ->
  t
(** A fresh controller: [M] permits in the root's storage, no packages
    anywhere. [reject_mode] defaults to [Wave].

    With a [telemetry] sink every request is recorded by {!answer} (the
    centralized controller is synchronous, so its permit spans have zero
    latency), and each package event also records its [Package_created] /
    [Package_split] / [Package_static] / [Package_join] event, all timed by
    {!clock}, as does the [Reject_wave]. The sink derives the metrics from
    these events ({!Telemetry.Sink}). Without a sink no telemetry code
    runs. *)

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

(** {2 Telemetry of the controller stacks}

    {!Central}, {!Iterated} and {!Adaptive} share {!answer} and {!clock},
    so that a request is recorded once, by the layer that answers the
    caller. *)

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
    the answer's outcome and, as its [moves], the growth of [moves ()].
    Inside a trace it only serves. *)

val clock : Telemetry.Sink.t -> int
(** The time of the request being answered: its root trace id plus one.
    For a fresh sink that no network shares, the running request count. *)
