(** Bin-hierarchy controller in the style of Afek, Awerbuch, Plotkin and
    Saks [4] — the baseline our controller is compared against (E3).

    [4] stores permits in per-node {e bins} whose level and supervisor are
    functions of the node's exact depth: a node at depth [d] owns a bin of
    level [ruler d] (the largest [i] with [2^i | d]); the supervisor of a
    level-[i] bin is the bin of the ancestor [2^i] hops above (level
    [>= i+1], or the root's storage). A request draws from the local bin;
    an empty bin replenishes [2^i * sigma] permits from its supervisor,
    recursively. Because everything is keyed by exact depth, the scheme
    supports only the grow-only dynamic model: leaf insertions never change
    an existing depth, anything else would silently corrupt the hierarchy —
    so any other topological request raises.

    This module is the fixed-[U] base (report-mode exhaustion); iterate it
    with {!Iterate.Make} to obtain the full [(M,W)] baseline. *)

type t

val create : params:Params.t -> tree:Dtree.t -> t
val request : t -> Workload.op -> Types.outcome
(** @raise Invalid_argument on removals or internal insertions (the [4]
    model does not include them). *)

val moves : t -> int
val granted : t -> int
val leftover : t -> int

(** The full iterated baseline. *)
module Iterated : sig
  include Iterate.S

  val create :
    ?reject_mode:Types.reject_mode -> m:int -> w:int -> u:int -> tree:Dtree.t -> unit -> t
end
