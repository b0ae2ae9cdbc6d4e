(** Heavy-child decomposition over the message-passing simulator
    (Theorem 5.4, distributed).

    The pointer rule of {!Heavy_child} driven by the distributed subtree
    estimator: child-to-parent reports are real (counted) messages, riding
    on an asynchronous network, and the [O(log n)] light-ancestor bound
    holds at any quiescent point of the execution. *)

type t

val create : net:Net.t -> unit -> t

val submit : t -> Workload.op -> k:(unit -> unit) -> unit
(** Submit one controlled topological change; [k] fires after it applied. *)

val heavy : t -> Dtree.node -> Dtree.node option
val light_ancestors : t -> Dtree.node -> int
val max_light_ancestors : t -> int

val messages : t -> int
(** Report and epoch-reseed messages plus the estimator's overhead (the
    controller's own traffic is counted by the shared [Net]). *)

val epochs : t -> int
val estimator : t -> Subtree_estimator_dist.t
