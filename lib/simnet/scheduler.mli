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

    {b Link interning.} The hot path never constructs a link value. A link
    is a direct [(src, dst)] pair, [dst] resolved through the
    deletion-forwarding chain at send time, or the up-link of a sender,
    whoever its parent is at delivery time. It is interned at send time
    ({!intern_direct} / {!intern_up}) to a small {!link_id} that indexes
    flat per-link state: the FIFO bound, the messages in flight and the
    highest send delivered, from which {!delivered} tells a reordered
    delivery. The intern table is open-addressed over the link packed into
    one int: a power-of-two array of ids, probed linearly from a
    multiplicative hash of the node the link is keyed on (its destination,
    or the sender of an up-link) at load at most 1/2, so a found link costs
    a multiply, a shift and a few array reads, and a deletion reads only
    the one probe run of the deleted node's links.

    A link's state lives only while it can matter. A link is {e dead} once
    every message decided on it has been {!delivered} and its FIFO bound is
    not ahead of the [now] of the latest {!decide}; a dead link behaves
    exactly as a link never seen. When an intern finds no free id, the
    scheduler frees the ids of dead links and rebuilds the table, and it
    grows only when more than half of its ids are still live. So it holds at
    most [max 64 (2 * peak)] ids, [peak] being the most links live at once,
    and retiring links changes no delivery time and no reorder flag. *)

type discipline =
  | Fifo_link
  | Random_delay
  | Adversarial_lifo of { window : int }
  | Bursty of { period : int }

type link_id = int
(** A link's index while the link is live, from the [intern_*] functions;
    [0 <= id < link_count]. A dead link's id may be handed to another
    link. *)

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
(** The id of the direct link [(src, dst)], interning it if it is not
    held. Allocation-free on the found path. *)

val intern_up : t -> Dtree.node -> link_id
(** The id of the up-link of [v], interning it if it is not held.
    Allocation-free on the found path. *)

val link_count : t -> int
(** Number of ids the scheduler holds, live or free: at least 64 and at
    most twice the most links live at once. *)

val decide : t -> rng:Rng.t -> max_delay:int -> now:int -> link:link_id -> int
(** Delivery time for a message sent at [now] on [link]; always [> now].
    Counts the message in flight on [link] until {!delivered}. [now] must
    not decrease from one call to the next ({!Net}'s clock does not). The
    priority of the decision is left in {!last_priority} rather than
    returned — one [decide] per send, and a tuple here put an allocation
    on every message. [Fifo_link] and [Random_delay] consume one draw from
    [rng] per call; the other disciplines consume none. Allocation-free. *)

val last_priority : t -> int
(** Priority decided by the most recent {!decide} (meaningless before the
    first). The event queue orders by time, then priority, then insertion;
    {!Adversarial_lifo} is the only discipline using a non-zero priority
    (strictly decreasing, so same-time messages release newest-first). *)

val delivered : t -> link_id -> sseq:int -> bool
(** Record the delivery of a message decided on [link] whose send sequence
    number is [sseq], and return whether it was reordered: whether a later
    send on the link was delivered before it. Send sequence numbers must
    rise in send order. Allocation-free. *)

val on_node_deleted : t -> deleted:Dtree.node -> resolve:(Dtree.node -> Dtree.node) -> unit
(** Fold the FIFO bound of every link keyed on [deleted] into the
    corresponding link of its adopter (via [resolve]), so the per-link
    ordering guarantee survives the deletion-forwarding indirection: a
    message sent to [deleted] before the deletion and one sent to the
    adopter after it still deliver in send order. *)
