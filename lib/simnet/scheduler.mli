(** Delivery-discipline scheduler for {!Net}.

    The paper's model only requires arbitrary finite per-link delays; *which*
    finite schedule a run explores is a first-class, swappable choice here, so
    the controllers and estimators can be exercised (and their invariants
    checked) under several delivery models reproducibly:

    - {!Fifo_link} — the documented default: per-(src, dst) link queues.
      Each message draws a seeded delay in [\[1, max_delay\]] but is never
      delivered before a message sent earlier on the same link. This is the
      "FIFO per link" model DESIGN.md promises.
    - {!Random_delay} — the historical behaviour: every message draws an
      independent delay, so a later message can overtake an earlier one on
      the same link. Explicitly {b not} FIFO; kept for comparison.
    - {!Adversarial_lifo} — a worst-case reordering adversary: messages are
      held until the end of the current [window]-tick window and released
      newest-first.
    - {!Bursty} — quiescent periods followed by batched flushes: every
      message sent during a [period]-tick window is delivered at the window
      boundary, in send order (FIFO within the burst).

    A scheduler instance holds the per-link bookkeeping for one {!Net};
    the pure {!discipline} value is what callers pass around.

    {b Link interning.} The hot path never constructs a {!link} value: a
    link is interned at send time ({!intern_direct} / {!intern_up}) to a
    dense {!link_id} that indexes flat per-link state here and in {!Net}'s
    reorder accounting. Ids are assigned in first-send order and are stable
    for the life of the scheduler; {!link_of_id} recovers the structured
    form at the reporting boundary. *)

type discipline =
  | Fifo_link
  | Random_delay
  | Adversarial_lifo of { window : int }
  | Bursty of { period : int }

type link =
  | Direct of Dtree.node * Dtree.node
      (** a concrete (src, dst) pair; [dst] resolved through the
          deletion-forwarding chain at send time *)
  | Up of Dtree.node
      (** the upward link of a node — "to my parent" sends, whoever the
          parent turns out to be at delivery time *)

type link_id = int
(** Dense per-scheduler link index, assigned by the [intern_*] functions
    in first-send order; [0 <= id < link_count]. *)

type t

val create : discipline -> t
(** @raise Invalid_argument when [window] or [period] is below 1. *)

val discipline : t -> discipline

val name : discipline -> string
(** Canonical, parseable name: ["fifo_link"], ["random_delay"],
    ["adversarial_lifo:<window>"], ["bursty:<period>"]. *)

val of_string : string -> (discipline, string) result
(** Inverse of {!name}. Bare ["adversarial_lifo"] / ["lifo"] and ["bursty"]
    take the default parameter (window 8, period 12); ["fifo"] and
    ["random"] are accepted as shorthands. *)

val default : unit -> discipline
(** [Fifo_link], unless the [SIMNET_SCHEDULER] environment variable names
    another discipline (the hook the CI matrix uses to run the whole test
    suite under a different schedule). @raise Invalid_argument when the
    variable is set but unparseable. *)

val defaults : discipline list
(** One representative of each discipline (default parameters), for
    schedule-exploration sweeps. *)

val intern_direct : t -> src:Dtree.node -> dst:Dtree.node -> link_id
(** The id of [Direct (src, dst)], interning it on first sight.
    Allocation-free on the found path. *)

val intern_up : t -> Dtree.node -> link_id
(** The id of [Up v], interning it on first sight. Allocation-free on the
    found path. *)

val link_count : t -> int
(** Number of links interned so far; grows monotonically, so callers can
    size id-indexed side tables. *)

val link_of_id : t -> link_id -> link
(** The structured link behind an id, for reporting. Allocates.
    @raise Invalid_argument on an id never returned by [intern_*]. *)

val decide : t -> rng:Rng.t -> max_delay:int -> now:int -> link:link_id -> int
(** Delivery time for a message sent at [now] on [link]; always [> now].
    The priority of the decision is left in {!last_priority} rather than
    returned — one [decide] per send, and a tuple here put an allocation
    on every message. [Fifo_link] and [Random_delay] consume one draw from
    [rng] per call; the other disciplines consume none. Allocation-free. *)

val last_priority : t -> int
(** Priority decided by the most recent {!decide} (meaningless before the
    first). The event queue orders by time, then priority, then insertion;
    {!Adversarial_lifo} is the only discipline using a non-zero priority
    (strictly decreasing, so same-time messages release newest-first). *)

val on_node_deleted : t -> deleted:Dtree.node -> resolve:(Dtree.node -> Dtree.node) -> unit
(** Fold the FIFO state of every link ending at [deleted] into the
    corresponding link of its adopter (via [resolve]), so the per-link
    ordering guarantee survives the deletion-forwarding indirection: a
    message sent to [deleted] before the deletion and one sent to the
    adopter after it still deliver in send order. *)

val link_to_string : link -> string
