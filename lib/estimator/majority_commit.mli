(** Majority commitment on a growing network (Section 1.3).

    Bar-Yehuda and Kutten introduced asynchronous size estimation exactly to
    decide majority commitment in networks where nodes may still wake up or
    join. Here, joins are governed by a terminating [(M,W)]-controller, so
    the root always holds a sound upper bound [R] on how many more voters
    can ever appear. At every size-estimation epoch boundary the vote tally
    piggybacks on the boundary upcast (already charged): with [yes]/[no]
    known exactly and at most [R] future voters,

    - [yes > (n + R) / 2] makes {e Commit} safe whatever happens later;
    - [no >= (n + R) / 2] makes {e Abort} safe (a yes-majority has become
      impossible — ties abort);
    - when the controller terminates, the tally is final and the decision
      exact.

    The decision is therefore always {e eventually} made, and any early
    decision agrees with the final ground truth. *)

type decision = Majority_core.decision = Commit | Abort

type t

val create : m:int -> tree:Dtree.t -> initial_votes:(Dtree.node -> bool) -> unit -> t
(** [m] bounds the number of joins ever to be admitted. *)

val submit_join : t -> parent:Dtree.node -> vote:bool -> bool
(** Request one join; returns whether it was admitted (always true until
    the global budget is spent). *)

val decision : t -> decision option
(** The root's decision, once reached. Never reverts. *)

val joins : t -> int
val epochs : t -> int
val messages : t -> int

val ground_truth : t -> decision
(** Majority of the votes of every node ever admitted (ties abort) —
    analysis only. *)
