(** The name-assignment protocol (Theorem 5.2).

    Maintains at every node [v] a short unique identity: at any time the
    identities of the live nodes are pairwise distinct integers in
    [[1, 4n]], where [n] is the current size — i.e. [log n + O(1)] bits.

    Epoch [i] starts with [N_i] nodes. Two DFS traversals (charged [2n]
    messages each) first move every identity into the temporary range
    [[3 N_i + 1, 4 N_i]] and then down to [[1, N_i]] — the double traversal
    keeps identities unique {e during} renaming, the paper's delicate point.
    A terminating distributed [(max (2, N_i/2), max (1, N_i/4))]-controller
    then guards all topological changes; each granted insertion consumes
    one permit, and each permit owns one integer of the epoch band
    [[N_i + 1, N_i + max (2, floor (N_i/2))]] (in the paper the root seeds
    the package intervals and splits them with the packages; the simulator
    realizes the same bijection at grant time without extra messages — see
    DESIGN.md). The band is the paper's [[N_i + 1, 3 N_i / 2]] from
    [N_i = 4] on; below that it holds two integers, because the waste is
    at least 1 and a controller with [M = 1] would promise no grant at all.
    Identities stay at most [4n] either way. When the controller terminates — after at least [N_i/4] changes —
    the epoch rotates. *)

type t

val create : net:Net.t -> unit -> t
(** Nodes are assumed to start with identities in [[1, n0]] (the fresh
    assignment is performed immediately, charged as one traversal). *)

val submit : t -> Workload.op -> k:(unit -> unit) -> unit
(** Submit a controlled topological change; [k] fires after it applied. *)

val id : t -> Dtree.node -> int
(** Current identity of a live node. *)

val ids : t -> (Dtree.node * int) list
(** All live nodes with their identities. *)

val epochs : t -> int
val overhead_messages : t -> int
val max_id_ever_ratio : t -> float
(** High-water mark of [max id / n], checked at every change (the paper
    proves it never exceeds 4). *)

val tag_universe : string list
(** Every wire tag this protocol's inner controller can emit
    ({!Controller.Dist.tag_universe} for its name prefix);
    [Net.messages_by_tag] of any run is a subset. *)
