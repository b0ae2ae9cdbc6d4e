(** The majority-commitment rule of Section 1.3, shared by
    {!Majority_commit} and {!Majority_commit_dist}: the tally, the budget of
    joins still admissible, and the root's decision. *)

type decision = Commit | Abort
type t

val create : m:int -> tree:Dtree.t -> initial_votes:(Dtree.node -> bool) -> t
(** [m] bounds the joins ever to be admitted; every live node votes. *)

val budget : t -> int -> int * int
(** The epoch budget [(M, W)] at size [n]: half the size, capped by the
    joins left, so [M = 0] once the budget is spent. *)

val boundary : t -> unit
(** The tally reaches the root (riding the boundary upcast); the root
    decides if the outcome has become inevitable. *)

val admit : t -> vote:bool -> bool
(** Record one admitted join. The join that spends the budget runs the
    final {!boundary} (the tally is now exact, the decision definitive) and
    returns [true]; the caller charges its upcast. *)

val remaining : t -> int
val decision : t -> decision option
val joins : t -> int
val ground_truth : t -> decision
