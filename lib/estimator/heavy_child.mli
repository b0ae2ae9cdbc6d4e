(** Heavy-child decomposition of a dynamic tree (Theorem 5.4).

    Every internal node [v] keeps a pointer [mu v] to one child — its
    {e heavy} child; all other children are {e light}. The pointers
    guarantee that, at any time, every node has [O(log n)] light ancestors.

    Built on {!Subtree_estimator} with [beta = sqrt 3]: whenever a node's
    estimate grows it reports the new value to its parent (one message,
    counted; at most doubling the total); each node points at the child with
    the largest reported estimate. Reports are synchronous here, so that is
    the child's current estimate, read in place. Estimates are monotone
    within an epoch, so pointers only ever move to strictly heavier
    children; each epoch rebuild re-seeds the reports (one broadcast,
    counted). The paper shows
    the rule keeps [SW(u) <= 3/4 SW(v)] for every light child [u] of [v],
    whence the logarithmic bound. *)

type t

val create : tree:Dtree.t -> unit -> t

val submit : t -> Workload.op -> unit
(** Apply one controlled topological change. *)

val heavy : t -> Dtree.node -> Dtree.node option
(** [mu v]: the heavy child of a live node ([None] for leaves). *)

val light_ancestors : t -> Dtree.node -> int
(** Number of strict ancestors [w] of [v] such that the child of [w] on the
    path to [v] is light. *)

val max_light_ancestors : t -> int
(** Maximum of [light_ancestors] over all live nodes, right now. *)

val messages : t -> int
(** Controller moves plus report and rebuild messages. *)

val epochs : t -> int
val estimator : t -> Subtree_estimator.t
