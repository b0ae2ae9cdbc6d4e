(** The per-node counters of the subtree estimator (Lemma 5.3), shared by
    {!Subtree_estimator} and {!Subtree_estimator_dist}: the epoch-start
    subtree size [omega_0(v)], the permits [S(v)] seen passing down via
    [v], and the ground-truth super-weight [SW(v)]. Each transport observes
    the permit flow on its own controller and calls {!observe}. *)

type t

val create : on_change:(Dtree.node -> unit) -> tree:Dtree.t -> t
(** [on_change v] fires whenever [omega~(v)] increased. *)

val start_epoch : t -> unit
(** Reset [S] and reseed [omega_0 = SW] to the current subtree sizes. *)

val observe : t -> node:Dtree.node -> size:int -> unit
(** [size] permits entered [node] moving down. *)

val note_applied : t -> Workload.applied -> unit
(** Maintain [SW] across a change: a fresh node starts its own and
    increments every current ancestor's; deletions change nothing. *)

val estimate : t -> Dtree.node -> int
(** [omega~(v) = omega_0(v) + S(v)]. *)

val super_weight : t -> Dtree.node -> int
