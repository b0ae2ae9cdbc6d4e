(** Exact (stretch-1) routing on the dynamic tree (Section 5.4,
    Observation 5.5 / Corollary 5.6).

    Every node carries an interval address; a node's routing table is the
    addresses of its children (plus the parent port). The next hop towards
    [dst] is decided locally: if [dst]'s address is outside the node's own
    interval the packet goes up, otherwise to the unique child whose
    interval contains it. Interval containment mirrors ancestry, so the
    scheme shares the dynamic machinery of {!Ancestry_labeling}: deletions
    of leaves {e and} internal nodes are free (containment self-adapts to
    the spliced tree), insertions take adjacent integers from the local
    gap, and size-estimation epochs (or an exhausted gap) trigger a
    recomputation that keeps addresses at [log n + O(1)] bits. *)

type t

val create : tree:Dtree.t -> unit -> t

val submit : t -> Workload.op -> unit
(** Apply one controlled topological change, maintaining addresses. *)

val next_hop : t -> at:Dtree.node -> dst:Dtree.node -> Dtree.node
(** The neighbour to forward to, decided from [at]'s table and [dst]'s
    address only. @raise Invalid_argument if [at = dst] or either is not
    live. *)

val route : t -> src:Dtree.node -> dst:Dtree.node -> Dtree.node list
(** The full path from [src] to [dst] (excluding [src], including [dst]),
    produced by repeated {!next_hop}. *)

val address_bits : t -> int
(** Bits of the largest address in use (two endpoints). *)

val relabels : t -> int
val messages : t -> int
