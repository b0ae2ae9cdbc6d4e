(** Binary min-heap of timed events. Entries order by time, then priority
    (lower first; {!add} uses 0), then insertion order, so executions are
    deterministic given the delay RNG. The priority tier is what lets a
    scheduler release same-time events in an order other than FIFO (the
    adversarial-LIFO discipline passes strictly decreasing priorities).

    The heap is a struct-of-arrays: times, priorities, sequence numbers and
    payloads live in four parallel flat arrays, so [add] writes slots and
    [pop_exn] reads them — no per-entry box is allocated or moved by sifts.
    [create] takes a [dummy] payload used to clear popped slots, so the
    queue never retains a reference to a delivered event's payload (the
    closures captured by network messages can be collected — or their cells
    pooled — as soon as they run). *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] fills empty payload slots; it is never returned by [pop_exn]
    unless it was [add]ed. *)

val add : 'a t -> time:int -> 'a -> unit
(** Insert an event at priority 0. Allocation-free. *)

val add_prio : 'a t -> time:int -> priority:int -> 'a -> unit
(** Insert an event at the given priority, which is what {!Net}'s send
    path calls. Allocation-free: [priority] is a required label, so no
    call site boxes it. *)

val next_time : 'a t -> int
(** Time of the earliest event. Allocation-free.
    @raise Invalid_argument if the queue is empty. *)

val pop_exn : 'a t -> 'a
(** Remove and return the earliest event's payload; read {!next_time}
    first when the time is needed. Allocation-free.
    @raise Invalid_argument if the queue is empty. *)

val pop : 'a t -> (int * 'a) option
(** Allocating convenience form of [next_time]/[pop_exn], for tests and
    tools off the hot path. *)

val is_empty : 'a t -> bool
val size : 'a t -> int
