(** Scenario generation for dynamic-tree controllers.

    A workload is a stream of requests generated online against the current
    tree, in the controlled dynamic model of the paper: the entity submits a
    request; the change is applied only if and when the controller grants a
    permit. *)

type op =
  | Add_leaf of Dtree.node  (** add a fresh leaf under this node *)
  | Remove_leaf of Dtree.node  (** remove this (non-root) leaf *)
  | Add_internal of Dtree.node  (** split the edge above this (non-root) node *)
  | Remove_internal of Dtree.node  (** remove this (non-root) internal node *)
  | Non_topological of Dtree.node  (** a countable event at this node *)

val pp_op : Format.formatter -> op -> unit

val is_topological : op -> bool
(** Every op but [Non_topological] changes the tree. *)

val request_site : Dtree.t -> op -> Dtree.node
(** The node at which the request for [op] enters the system (paper §2.1.2):
    the parent-to-be for additions, the node itself otherwise (also for a
    node that is not in the tree). *)

val valid_op : Dtree.t -> op -> bool
(** Whether [op] can be applied to the current tree. *)

val apply : Dtree.t -> op -> unit
(** Apply a granted topological change ([Non_topological] is a no-op).
    @raise Invalid_argument if [not (valid_op t op)]. *)

(** What actually happened when an op was applied — consumed by layers that
    maintain per-node state (whiteboards, labels) alongside the tree. *)
type applied =
  | Leaf_added of { parent : Dtree.node; leaf : Dtree.node }
  | Internal_added of { below : Dtree.node; fresh : Dtree.node }
      (** [fresh] was inserted as the new parent of [below] *)
  | Leaf_removed of { node : Dtree.node; parent : Dtree.node }
  | Internal_removed of {
      node : Dtree.node;
      parent : Dtree.node;
      children : Dtree.node list;  (** adopted by [parent] *)
    }
  | Event_occurred of Dtree.node

val apply_info : Dtree.t -> op -> applied
(** Like {!apply} but reports the change.
    @raise Invalid_argument if [not (valid_op t op)]. *)

(** Initial tree shapes. *)
module Shape : sig
  type t =
    | Path of int  (** root-anchored path of [n] nodes *)
    | Star of int  (** root with [n-1] leaf children *)
    | Random of int  (** each new node attaches below a uniform live node *)
    | Balanced of int * int  (** [Balanced (b, n)]: b-ary, filled level order *)
    | Caterpillar of int  (** spine of [n/2] with a leaf hanging off each *)

  val build : Rng.t -> t -> Dtree.t
  val name : t -> string
end

(** Relative frequencies of the five request kinds. Invalid choices for the
    current tree (e.g. a removal when only the root remains) fall back to
    leaf addition. *)
module Mix : sig
  type t = {
    add_leaf : float;
    remove_leaf : float;
    add_internal : float;
    remove_internal : float;
    non_topological : float;
  }

  val grow_only : t
  (** Only leaf insertions — the dynamic model of Afek et al. [4]. *)

  val churn : t
  (** Balanced additions and removals of leaves and internal nodes. *)

  val shrink_heavy : t
  (** Removal-biased: exercises the regime [4] cannot handle at all. *)

  val mixed_events : t
  (** Churn plus non-topological countable events. *)
end

type t
(** A workload generator: deterministic given its seed. *)

val make : ?seed:int -> ?deep_bias:bool -> ?within:Dtree.node -> mix:Mix.t -> unit -> t
(** Targets are sampled uniformly from the generator's snapshot of the live
    set, which is refreshed once the tree has drifted by max 16 (n/4)
    changes; a generator is meant for one tree.

    [deep_bias] biases target selection towards deep nodes (an adversary
    that lengthens walks to the root): each sample is the deepest live node
    of three uniform snapshot samples, and a tie keeps the earlier sample
    (if none of the three is live, the sample is discarded). A sample costs
    O(1) while only leaves come and go, because the first deep-bias draw
    after a refresh memoizes every snapshot node's depth in one
    O(n log n) pass. After an internal insertion or removal
    ({!Dtree.reshape_count}), each sample costs O(depth) until the next
    refresh.

    [within] confines every target to the subtree of the given node while it
    is live (a hotspot adversary that concentrates all traffic in one
    region); targeting falls back to the whole tree if the hotspot has been
    deleted. *)

val next_op : t -> Dtree.t -> op
(** Draw the next request against the current tree. Always returns a valid
    op (falls back to [Add_leaf root] when the drawn kind is impossible). *)

val next_op_avoiding : t -> Dtree.t -> forbidden:(Dtree.node -> bool) -> op option
(** Like [next_op] but never returns an op whose touched nodes satisfy
    [forbidden] — used by concurrent drivers so that in-flight requests never
    conflict. [None] when no op can currently be generated (everything
    interesting is reserved); retry later. *)

val touched : Dtree.t -> op -> Dtree.node list
(** Nodes whose tree-neighbourhood the op reads or writes: the target, its
    parent for removals and internal insertions, and the adopted children for
    internal removals. *)

(** Scenario record and replay.

    A trace pins down a complete controlled-dynamic scenario: the initial
    tree shape (with its build seed) and the exact request stream. Traces
    serialize to a line-oriented text format, so a failing fuzzed scenario
    can be saved and replayed as a regression test, and benchmark workloads
    can be shared byte-for-byte. *)
module Trace : sig
  type trace = { build_seed : int; shape : Shape.t; ops : op list }

  val capture :
    ?seed:int -> ?deep_bias:bool -> shape:Shape.t -> mix:Mix.t -> steps:int ->
    unit -> trace
  (** Generate a scenario by running the workload generator against a
      scratch tree, applying every op (the controlled model's optimistic
      schedule). The scratch tree is discarded; {!replay} rebuilds it. *)

  val replay : trace -> f:(Dtree.t -> op -> unit) -> Dtree.t
  (** Rebuild the initial tree and feed every op to [f] in order. [f] is
      responsible for applying granted ops (controllers do it themselves);
      recorded ops stay valid as long as every earlier op was applied. *)

  val to_string : trace -> string

  val of_string : string -> trace
  (** @raise Failure on malformed input, with a message that names the
      offending line ([Trace: line N: ...]). *)

  val save : trace -> string -> unit
  val load : string -> trace
end
