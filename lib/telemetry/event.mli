(** Typed trace events, timestamped with the simulated clock.

    One constructor per instrumented behaviour of the stack: network sends
    and deliveries, permit-request spans (submit → grant/reject latency in
    simulated time), package life-cycle by level, domain-tracker changes,
    controller epoch rotations, and estimator updates.

    Events serialize to single-line JSON (see {!to_json} / {!of_json}) and
    round-trip exactly; the JSONL traces a sink writes ({!Sink.to_channel},
    {!Sink.to_jsonl}) are re-readable with {!of_line}. *)

type addr = Exact of int | Parent_of of int
(** A send's address: [Exact v] for [Net.send_to ~dst:v], [Parent_of v]
    for [Net.send_up ~src:v] (the network library sits above this one). *)

type ctx = { trace : int; span : int; parent : int }
(** Causal context. A {e span} is one send→deliver hop of one message; the
    {e trace} names the whole causal chain the hop belongs to (the id of the
    chain's root span); [parent] is the span whose delivery continuation (or
    scheduled action) issued this send. Ids are minted per sink by
    {!Sink.fresh_id}, dense from the sink's id base. All three fields are
    [-1] when the event was recorded without causal context ({!no_ctx});
    [parent = -1] with [trace >= 0] marks a root span. *)

val no_ctx : ctx
(** The shared no-causality context (all fields [-1]). Physically one
    constant, so storing it costs no allocation. *)

val has_ctx : ctx -> bool
(** [trace >= 0]. *)

type kind =
  | Sched of { discipline : string }
      (** emitted once at network creation: which delivery discipline the
          run's scheduler enforces, so a trace proves which model ran *)
  | Send of { src : int; addr : addr; tag : string; bits : int }
  | Deliver of {
      src : int;
      dst : int;
      tag : string;
      seq : int;  (** global send sequence number of the delivered message *)
      forwarded : bool;
      reordered : bool;
    }
      (** [forwarded]: the addressed node was deleted in flight and the
          deletion-forwarding chain redirected the message. [reordered]: the
          delivery overtook an earlier send on the same link (never true
          under the FIFO-per-link scheduler). *)
  | Permit_span of {
      ctrl : string;
      node : int;
      aid : int;  (** request/agent id; -1 when the controller has none *)
      outcome : string;  (** "granted" | "rejected" | "exhausted" *)
      submitted : int;  (** simulated submission time *)
      latency : int;  (** grant/reject time minus [submitted] *)
      moves : int;
          (** the moves a centralized answer cost; -1 for a distributed
              answer, whose cost is its messages *)
    }
  | Package_created of { ctrl : string; level : int; size : int }
  | Package_split of { ctrl : string; level : int }
      (** a level-[level] package split into two level-[level-1] halves *)
  | Package_static of { ctrl : string; node : int; size : int }
  | Package_join of { ctrl : string; from_ : int; to_ : int }
      (** a deleted node's store absorbed by its parent *)
  | Reject_wave of { ctrl : string; node : int }
  | Epoch of { ctrl : string; epoch : int; n : int }
  | Estimate of { ctrl : string; node : int; value : int; truth : int }
      (** an estimate update: [value] vs the true quantity [truth] (network
          size for size estimation, name-range ceiling for names) *)
  | Phase of {
      name : string;
      count : int;  (** how many {!Profile} measurements were folded in *)
      alloc_bytes : int;
      minor : int;  (** minor collections during the phase *)
      major : int;  (** major collections during the phase *)
      wall_ns : int;  (** wall time, 0 when the profile had no clock *)
    }
      (** one {!Profile} phase total: GC/alloc deltas attributed to a named
          stretch of work (see {!Profile.run}) *)

type t = { time : int; ctx : ctx; kind : kind }

val to_json : t -> Json.t
(** Causality fields ([trace]/[span]/[parent]) are emitted only when present
    (>= 0), so context-free events serialize exactly as before the causality
    layer existed; likewise a [Permit_span]'s [moves] only when >= 0. *)

val of_json : Json.t -> t
(** @raise Failure on a JSON value that no [kind] produces. Absent causality
    fields, and an absent [moves], parse as [-1] (i.e. {!no_ctx}). *)

val to_line : t -> string
(** The event as one line of JSON (no trailing newline). *)

val of_line : string -> t
(** Inverse of {!to_line}. @raise Failure on malformed input. *)

val pp : Format.formatter -> t -> unit
