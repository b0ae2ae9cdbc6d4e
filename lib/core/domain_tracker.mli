(** Package domains (Section 3.2) — analysis-only instrumentation.

    The correctness proof of the controller associates every existing mobile
    package with a {e domain}: a set of (possibly already deleted) nodes. The
    algorithm itself never communicates about domains; they exist purely to
    prove liveness. This module materializes them so the test suite can check
    the three domain invariants after every controller step:

    + the domain of a level-[k] package contains exactly [2^(k-1) psi] nodes;
    + domains of same-level packages are disjoint;
    + the currently existing nodes of a domain form a path hanging down from
      a child of the package's host.

    The tracker reads the controller's own package life cycle through
    {!hooks}, which maps its events onto the formation / cancellation /
    relocation cases of Section 3.2 (Cases 1–5). *)

type t

val create : params:Params.t -> tree:Dtree.t -> unit -> t

val hooks : t -> Central.hooks
(** The hooks to pass to {!Central.create}: a [Split] cancels the parent's
    domain and assigns [left] its domain at the requester's ancestor at
    [to_dist]; a package that [Became_static] loses its domain; a
    [Store_moved] rehosts the packages of the deleted node; a granted
    [Internal_added] runs Case 4 ({!on_add_internal}). *)

val assign : t -> Package.t -> requester:Dtree.node -> dist:int -> unit
(** Domain at formation (Case 2): the package is hosted at [requester]'s
    ancestor at distance [dist], and its domain is the [domain_size] nodes
    strictly below that host on the path towards [requester]. *)

val cancel : t -> Package.t -> unit
(** The package split, became static, or was consumed: its domain vanishes.
    No-op for packages that never had a domain. *)

val on_add_internal : t -> new_node:Dtree.node -> child:Dtree.node -> unit
(** Case 4: [new_node] was inserted as the parent of [child]; every domain
    containing [child] gains [new_node] (just above [child]) and loses its
    bottom-most currently-existing node. Call after the tree change. *)

val tracked : t -> int
(** Number of packages currently holding a domain. *)

val check : t -> (unit, string) result
(** Verify the three domain invariants; [Error] carries a description of the
    first violation. *)
