(** The per-node counters of the subtree estimator (Lemma 5.3), shared by
    {!Subtree_estimator} and {!Subtree_estimator_dist}: the estimate
    [omega~(v) = omega_0(v) + S(v)], kept as its sum, where [omega_0(v)]
    is [v]'s subtree size at the epoch start and [S(v)] counts the permits
    seen passing down via [v]; and the ground-truth super-weight [SW(v)].
    Each transport observes the permit flow on its own controller and
    calls {!observe}. *)

type t

val create : on_change:(Dtree.node -> unit) -> tree:Dtree.t -> t
(** [on_change v] fires whenever [omega~(v)] increased. *)

val start_epoch : t -> unit
(** Reseed [omega~ = SW] to the current subtree sizes ([S] restarts at
    zero), in one stackless postorder walk that allocates nothing beyond
    growing the columns. *)

val observe : t -> node:Dtree.node -> size:int -> unit
(** [size] permits entered [node] moving down. *)

val note_applied : t -> Workload.applied -> unit
(** Maintain [SW] across a change: a fresh node starts its own and
    increments every current ancestor's; deletions change nothing. *)

val estimate : t -> Dtree.node -> int
(** [omega~(v) = omega_0(v) + S(v)]. *)

val estimates : t -> int array
(** The [omega~] column itself, read-only, for loops that compare many
    estimates with no call per read: slot [v] holds [estimate v] for every
    live node [v], and every live node has a slot. The array is the
    estimator's own: it is valid until the next {!start_epoch}, {!observe}
    or {!note_applied} (growth replaces it), and writing to it corrupts the
    estimates. *)

val super_weight : t -> Dtree.node -> int
