(** Discrete-event asynchronous message-passing network over a dynamic tree.

    The paper's model (Section 2.1): point-to-point messages over the edges
    of the spanning tree, arbitrary but finite delays, no losses, and
    "graceful" topology changes — a message in flight towards a node that has
    meanwhile been deleted is received by the node's parent, and a message
    addressed "to my parent" is received by whoever is the parent when it
    arrives (deletions splice, internal insertions interpose; both preserve
    the one-hop meaning of the send).

    Messages are closures fired at the resolved destination, so any protocol
    payload can ride the network without the network knowing its type. Local
    actions ([schedule]) share the clock but are not messages and are not
    counted.

    {b Wire tags.} Message tags are interned: a protocol renders each
    constructor of its variant suffix type to a string once, registers it
    with {!intern_tag} at creation, and sends with the returned {!Tag.id}.
    Per-send tallying is a flat array increment on the id — no string is
    joined, hashed or compared on the hot path — and strings reappear only
    at the reporting boundary ({!messages_by_tag}, telemetry labels, both
    rendered from the intern table). Interning is idempotent, so a protocol
    recreated on the same network (epoch wrappers) accumulates into the
    same counters.

    {b Delivery discipline.} When and in what order messages arrive is
    decided by a pluggable {!Scheduler}: the default, {!Scheduler.Fifo_link},
    draws per-message delays from a seeded RNG in [\[1, max_delay\]] but
    enforces FIFO order per (src, dst) link — the model DESIGN.md documents.
    {!Scheduler.Random_delay} reproduces the historical independent-delay
    behaviour (not FIFO); {!Scheduler.Adversarial_lifo} and
    {!Scheduler.Bursty} are worst-case reordering and batching adversaries.
    Link identity is frozen at send time (destination resolved through the
    deletion-forwarding chain, the link interned to a scheduler id) and
    survives later deletions, so the FIFO guarantee spans [node_deleted]
    adoption. Every delivery is checked against the per-link send order;
    violations feed the {!reorders} counter, so a trace proves which model
    actually ran. All per-link state is the scheduler's, and it lives only
    while the link has a message in flight or a FIFO bound ahead of the
    clock, so the network holds state for the links in use, not for every
    link ever used.

    {b Allocation.} A sink-less send and its delivery allocate nothing in
    steady state, forwarded or not: tag and link state are int arrays,
    link ids come from the scheduler's open-addressed int table, which
    recycles the ids of idle links instead of growing,
    the deletion-forwarding map is an int column indexed by node id, the
    event queue is a struct-of-arrays heap, and the in-flight message cells
    are pooled on a free list — a delivered cell is stripped and reused by
    the next send, so a sink-less message makes no [Hashtbl] lookup. Only
    the protocol's own continuation closures remain with the caller.

    {b Causality.} With a sink present, every send mints a span (see
    {!Telemetry.Event.ctx}): a fresh id, parented on the span whose delivery
    continuation or scheduled action issued the send, inheriting that span's
    trace id — or rooting a fresh trace when sent from outside any causal
    context. The [Send] and [Deliver] events of a message carry the same
    span (deletion-forwarding included), and the span is installed as the
    sink's ambient context around the delivery continuation, so protocol
    events emitted downstream — and further sends — link to it without the
    protocol layer naming causality at all. [schedule]d actions continue the
    ambient span; scheduled from outside any context (e.g. a request
    submission) they root a fresh trace. Without a sink, no ids are minted
    and messages carry the shared {!Telemetry.Event.no_ctx} constant. *)

type node = Dtree.node

type t

val create :
  ?seed:int ->
  ?max_delay:int ->
  ?scheduler:Scheduler.discipline ->
  ?sink:Telemetry.Sink.t ->
  tree:Dtree.t ->
  unit ->
  t
(** [max_delay] defaults to 8; [scheduler] defaults to
    {!Scheduler.default}[ ()] (i.e. [Fifo_link], or the [SIMNET_SCHEDULER]
    environment override). When a telemetry [sink] is given, the discipline
    is recorded at creation as a [Sched] event, every send as a [Send]
    event, and every delivery as a [Deliver] event (with [forwarded = true]
    when the deletion-forwarding chain redirected it, and
    [reordered = true] when it overtook an earlier send on its link); the
    sink derives the [net_*] metrics from them ({!Telemetry.Sink}). Without
    a sink the telemetry paths cost one branch and allocate nothing. *)

val tree : t -> Dtree.t

val sink : t -> Telemetry.Sink.t option
(** The sink passed at creation; protocol layers riding this network
    ({!Dist}, the estimators) record their own events through it. *)

val scheduler : t -> Scheduler.discipline
(** The delivery discipline this network runs under. *)

val intern_tag : t -> string -> Tag.id
(** Register one wire tag with this network and return its dense id.
    Idempotent; protocols call it once per tag at creation and keep the
    ids. Every id passed to the send functions must come from this
    network's [intern_tag]. *)

val tag_name : t -> Tag.id -> string
(** The string behind an interned id (the reporting boundary). *)

val send_to :
  t -> src:node -> dst:node -> tag:Tag.id -> bits:int -> (node -> unit) -> unit
(** Send one message to [dst]; the continuation runs at delivery time with
    the destination resolved through the deletion-forwarding chain. [tag]
    buckets the message statistics; [bits] is the message's size for the
    O(log N) accounting. *)

val send_up : t -> src:node -> tag:Tag.id -> bits:int -> (node -> unit) -> unit
(** {!send_to} the sender's parent as of the moment of delivery: the
    sender's own upward link, whoever holds its other end by then. *)

val schedule : t -> ?delay:int -> (unit -> unit) -> unit
(** A local (uncounted) action after [delay] (default 1) time units. *)

val run : t -> unit
(** Drain all events, then check cell conservation ({!pool_check}).
    @raise Failure with {!pool_check}'s message on a lost or unscrubbed
    cell. *)

val step : t -> bool
(** Execute one event; false if none remain. *)

val pool_check : t -> (unit, string) result
(** Verify the cell-pool conservation invariant: every cell the network
    ever minted is either in flight in the event queue or parked in the
    free pool, and parked cells are fully scrubbed (no retained closure,
    span context, or action flag). Safe to call at any point user code can
    run — including from inside a delivery continuation or a scheduled
    action, whose cell is released before the closure is invoked. [Error]
    carries a description of the first violation. *)

val now : t -> int

val node_deleted : t -> node -> parent:node -> unit
(** Register the forwarding of a deleted node to its adopting parent. The
    tree itself is updated by the caller. The scheduler's per-link FIFO
    state is folded into the adopter's links, so ordering survives the
    indirection. *)

val resolve : t -> node -> node
(** Follow the forwarding chain to the current live incarnation. Applies
    path compression: every visited entry is re-pointed at the final
    adopter, so chains stay O(1) amortized under long deletion sequences. *)

val forward_hops : t -> node -> int
(** Number of forwarding-table hops [resolve] would traverse for this node
    right now (0 for a live node). Exposed for the path-compression tests. *)

val messages : t -> int

val reorders : t -> int
(** Total deliveries that overtook an earlier send on the same link (link =
    (src, send-time-resolved dst), frozen at send). Always 0 under
    [Fifo_link] and [Bursty]; expected nonzero under [Adversarial_lifo]
    whenever two messages share a link and window. *)

val messages_by_tag : t -> (string * int) list
(** Per-tag message counts, {b sorted by tag} (lexicographically), omitting
    tags never sent. The order is guaranteed — telemetry snapshots and test
    expectations may rely on it; it never depends on hash-table or intern
    order. *)

val max_message_bits : t -> int
val total_bits : t -> int
