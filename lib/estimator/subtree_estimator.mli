(** The subtree-estimator protocol (Lemma 5.3).

    During epoch [i] of the size-estimation protocol, the {e super-weight}
    [SW(v)] of a node [v] is the number of descendants of [v] (including
    [v]) that existed at any point since the epoch started — deletions never
    decrease it. Each node [v] maintains
    [omega~(v) = omega_0(v, i) + S(v)] where [omega_0] is its subtree size
    at the epoch start (one broadcast/upcast) and [S(v)] counts the permits
    that passed {e down} through [v] since — observed for free on the
    controller's own package traffic. The estimate is monotone within an
    epoch and approximates [SW(v)] within a constant factor.

    This implementation runs on the centralized controller (whose move
    complexity equals the distributed message complexity up to a constant,
    Lemma 4.5), with the permit flow read off {!Controller.Central}'s
    package events: each [Split] and [Became_static] names the requester
    and the distances its permits moved down. *)

type t

val create :
  ?on_change:(Dtree.node -> unit) ->
  ?on_epoch:(unit -> unit) ->
  ?on_applied:(Workload.applied -> unit) ->
  tree:Dtree.t ->
  unit ->
  t
(** Each epoch's change budget is [alpha N_i = (1 - 1/beta) N_i] with
    [beta = sqrt 3]. [on_change v] fires whenever
    [omega~(v)] increased; [on_epoch] after every epoch rebuild;
    [on_applied] after every applied topological change. *)

val submit : t -> Workload.op -> unit
(** Apply one controlled topological change (granted immediately in the
    centralized setting; epochs rotate internally, never refusing). *)

val estimate : t -> Dtree.node -> int
(** [omega~(v)] for a live node. *)

val super_weight : t -> Dtree.node -> int
(** Ground-truth [SW(v)] (maintained for analysis and tests). *)

val epochs : t -> int

val moves : t -> int
(** Controller moves plus epoch-boundary broadcast/upcast charges. *)
