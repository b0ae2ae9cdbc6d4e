(** The unknown-[U] distributed [(M,W)]-controller (Theorem 4.9 /
    Appendix A).

    Epoch [i] guesses [U_i = 2 N_i] and runs two fixed-[U] distributed
    controllers side by side over the same network:

    - the {e main} [(M_i, W)]-controller serving every request, and
    - a {e change counter} — a terminating [(U_i/2, U_i/4)]-controller that
      only counts topological changes.

    A topological change happens only after both controllers grant (the
    agents of one ignore the locks of the other, as in the paper). When the
    change counter exhausts, between [U_i/4] and [U_i/2] changes have
    happened: the epoch rotates — outstanding work drains, a broadcast and
    upcast (charged at [2n] messages each) computes [N_{i+1}] and the unused
    permits [M_{i+1} = M_i - Y_i], whiteboards reset (one broadcast), and a
    fresh pair starts with [U_{i+1} = 2 N_{i+1}]. Requests caught by the
    rotation are re-submitted to the new epoch internally. When the {e main}
    controller exhausts, the budget is globally spent to within [W]: a reject
    wave is flooded and every subsequent request is rejected.

    Telemetry rides the network's sink. This layer answers the caller, so
    it records each answer through {!Dist.record_answer} under
    ["dist-adaptive"], and its reject wave and epoch rotations through
    {!Central.record_wave} and {!Central.record_epoch}; the main and
    counter controllers record their own answers under their names. *)

type t

val create : m:int -> w:int -> net:Net.t -> unit -> t

val submit : t -> Workload.op -> k:(Types.outcome -> unit) -> unit
(** [k] fires exactly once with [Granted] (after the event occurred) or
    [Rejected]. Never [Exhausted]. *)

val granted : t -> int
val rejected : t -> int
val outstanding : t -> int
val epochs : t -> int
val rejecting : t -> bool

val overhead_messages : t -> int
(** Messages charged for the inter-epoch broadcast/upcast/reset waves (they
    are accounted here rather than sent one by one; add to
    [Net.messages]). *)

val tag_universe : string list
(** Every wire tag the paired controllers can emit ({!Dist.tag_universe}
    for the "main" and "counter" prefixes); [Net.messages_by_tag] of any
    run is a subset. *)
