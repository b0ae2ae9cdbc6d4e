(** Rooted dynamic tree substrate.

    The network of the paper is spanned by a rooted tree [T] whose root is
    never deleted. [T] undergoes four kinds of topological changes (paper,
    Section 2.1.2): add-leaf, remove-leaf, add-internal-node and
    remove-internal-node. Node identifiers are small integers, never
    reused; deleted nodes keep their identifier so that traces and
    "domains" (which may contain deleted nodes) can refer to them.

    The representation is an int-indexed arena: flat integer columns for
    parent / first-child / next-sibling / prev-sibling with Buffer-style
    doubling growth (see DESIGN.md "Arena tree layout"). Ids index the
    columns directly, climbs and traversals are array reads with no
    per-step allocation, and every traversal below is iterative — a
    degenerate path of 10^6+ nodes is fine where a recursive
    representation overflows the stack.

    The four topological changes run in amortized time O(1) (the columns
    double when full) except [remove_internal], which is O(number of
    adopted children), matching the cost the paper itself charges for
    moving a deleted node's state to its parent. The queries are not all
    O(1): depth and ancestor queries climb to the root (O(depth)), the
    preorder walks cost O(size of the subtree walked), and the arena scans
    ([iter_nodes], [live_nodes], [leaves], [internal_nodes]) cost O(ids
    ever allocated). *)

type node = int
(** Stable node identifier. The root of a fresh tree is node [0]. A node's
    id never changes while it is live. *)

type t
(** A mutable rooted dynamic tree. *)

val create : unit -> t
(** A tree containing only its root. Ids are handed out in creation order
    and never reused, which the controllers' domain bookkeeping and
    {!Net}'s deletion forwarding rely on, so the arena grows with
    [ever_created]. *)

val root : t -> node

val add_leaf : t -> parent:node -> node
(** ["Add-leaf"]: attach a fresh degree-one node under [parent].
    @raise Invalid_argument if [parent] is not live. *)

val remove_leaf : t -> node -> unit
(** ["Remove-leaf"]: delete a non-root leaf.
    @raise Invalid_argument if the node is the root, not live, or not a
    leaf. *)

val add_internal : t -> above:node -> node
(** ["Add internal node"]: split the tree edge between [above] and its
    parent, inserting a fresh node as the new parent of [above].
    @raise Invalid_argument if [above] is the root or not live. *)

val remove_internal : t -> node -> unit
(** ["Remove internal node"]: delete a non-root internal node; its children
    become children of its parent.
    @raise Invalid_argument if the node is the root, not live, or a leaf. *)

val live : t -> node -> bool
(** Whether the node currently exists in the tree. *)

val parent : t -> node -> node option
(** Current parent; [None] for the root.
    @raise Invalid_argument if the node is not live. *)

val parent_id : t -> node -> node
(** Current parent as a bare id, [-1] for the root: the allocation-free
    variant of [parent] for hot climbing loops.
    @raise Invalid_argument if the node is not live. *)

val parent_column : t -> node array
(** The parent column itself, read-only: slot [v] holds [v]'s parent,
    [-1] at the root and at every slot that holds no live node (deleting a
    node clears its parent), so a [-1] at a non-root node is the liveness
    check [parent_id] makes. For climbing loops that read one parent per
    hop without a call. The array is the tree's own: it is valid until the
    next topological change (growth replaces it), and writing to it
    corrupts the tree. *)

val children : t -> node -> node list
(** Current children, in unspecified order. Allocates the list; hot paths
    should prefer [iter_children]/[fold_children]. *)

val iter_children : t -> node -> f:(node -> unit) -> unit
(** Iterate over the current children without building a list. [f] may
    delete the child it is handed (the link is read before the call) but
    must not otherwise change [v]'s child list. *)

val fold_children : t -> node -> init:'a -> f:('a -> node -> 'a) -> 'a
(** Fold over the current children without building a list. [f] must not
    change [v]'s child list. *)

val child_degree : t -> node -> int
(** Number of children (the paper's [deg(v)]). *)

val is_leaf : t -> node -> bool

val size : t -> int
(** Current number of live nodes, the paper's [n]. *)

val ever_created : t -> int
(** Total number of nodes ever to exist, including deleted ones (the
    quantity bounded by the paper's [U]). Every id is below it. *)

val change_count : t -> int
(** Number of topological changes applied so far. *)

val reshape_count : t -> int
(** Number of changes so far that can move a live node's depth: every
    [add_internal] and [remove_internal]. Adding or removing a leaf never
    moves a live node's depth, so depths remembered by id stay exact for as
    long as this count stands still. *)

val depth : t -> node -> int
(** Hop distance to the root. O(depth). *)

val ancestor_at : t -> node -> int -> node option
(** [ancestor_at t v d] is the ancestor of [v] at distance exactly [d],
    or [None] if [depth t v < d]. A node is its own ancestor
    ([d = 0] returns [v]).
    @raise Invalid_argument if [v] is not live or [d < 0]. *)

val ancestors : t -> node -> node list
(** Path from [v] (inclusive) to the root (inclusive). *)

val is_ancestor : t -> anc:node -> desc:node -> bool
(** Transitive-reflexive closure of parenthood. *)

val lowest_common_ancestor : t -> node -> node -> node

val subtree_size : t -> node -> int
(** Number of live nodes in the subtree rooted at [v], including [v].
    O(that number). *)

val fold_dfs : t -> init:'a -> f:('a -> node -> 'a) -> 'a
(** Depth-first (preorder) fold over live nodes, children in the order
    reported by [children]. O(size), with no per-node allocation. *)

val fold_dfs_depth : t -> init:'a -> f:('a -> node -> int -> 'a) -> 'a
(** [fold_dfs] that also hands [f] each node's depth. The depths come from
    the walk itself, so every live node's depth costs O(size) in total,
    where calling [depth] per node costs the sum of all depths. *)

val iter_postorder : t -> env:'e -> f:('e -> node -> node -> unit) -> unit
(** [iter_postorder t ~env ~f] calls [f env v p] on every live node [v]
    and its parent [p] ([-1] at the root), each node after all of its
    descendants, the root last. O(size), stackless, with no per-node
    allocation; [env] carries what [f] would otherwise capture, so a closed
    [f] builds no closure per walk. [f] must not change the topology. *)

val iter_nodes : t -> f:(node -> unit) -> unit
(** Iterate over all live nodes in increasing id order. *)

val live_nodes : t -> node list

val leaves : t -> node list

val any_leaf : t -> node
(** Some live leaf, found by descending first children from the root —
    O(depth), unlike [List.hd (leaves t)] which scans every node ever
    created. Returns the root itself when the tree is a singleton.
    Deterministic for a given tree history (sibling order is a function of
    the op sequence). *)

val internal_nodes : t -> node list
(** Live non-root nodes of tree degree > 1 (removable as internal nodes). *)

val port_to_parent : t -> node -> int
(** Adversarially assigned port number at [v] of the edge to its parent
    (paper, Section 2.1.2). @raise Invalid_argument on the root. *)

val check : t -> unit
(** Validate internal invariants (parent/child symmetry, acyclicity,
    connectivity, live-set consistency). @raise Failure on violation.
    Intended for tests. *)

val pp : Format.formatter -> t -> unit
(** Render the tree, one node per line, indented by depth. *)
