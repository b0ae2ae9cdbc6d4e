(** The subtree-estimator protocol over the message-passing simulator
    (Lemma 5.3, distributed).

    Same contract as the centralized {!Subtree_estimator} — every node
    maintains [omega~(v) = omega_0(v, i) + S(v)] within a constant factor
    of the super-weight [SW(v)] — but the permit flow [S(v)] is observed on
    the {e distributed} controller's own package traffic (the
    [on_permits_down] hook of {!Controller.Dist}), at zero additional
    messages. Concurrency costs one unit of additive slack per in-flight
    request (a freshly interposed ancestor can gain a descendant whose
    permit passed before the ancestor existed); the centralized variant is
    exact. Epochs follow the size-estimation protocol with
    [beta = sqrt 3]: each epoch's change budget is
    [alpha N_i = (1 - 1/beta) N_i]. *)

type t

val create :
  ?on_change:(Dtree.node -> unit) ->
  ?on_epoch:(unit -> unit) ->
  ?on_applied:(Workload.applied -> unit) ->
  net:Net.t ->
  unit ->
  t
(** [on_change v] fires whenever [omega~(v)] increased; [on_epoch] after
    every epoch rebuild; [on_applied] after every applied change. *)

val submit : t -> Workload.op -> k:(unit -> unit) -> unit
(** Submit one controlled topological change; [k] fires after it applied. *)

val estimate : t -> Dtree.node -> int
val super_weight : t -> Dtree.node -> int
val epochs : t -> int
val overhead_messages : t -> int

val tag_universe : string list
(** Every wire tag this protocol's inner controller can emit
    ({!Controller.Dist.tag_universe} for its name prefix);
    [Net.messages_by_tag] of any run is a subset. *)
