(** The entity's half of the request life cycle (Section 2.1): the one
    closed-loop driver for everything that answers requests over the
    simulator — distributed controllers, adaptive pairs and the Section 5
    estimators.

    Keeps up to [concurrency] requests in flight, drawn from a workload
    generator; requests never touch each other's nodes (a reservation set
    feeds {!Workload.next_op_avoiding}), so every granted topological change
    is still valid when it is applied — the "graceful" discipline of
    Section 4.2 at the driver level. *)

val drive :
  ?concurrency:int ->
  net:Net.t ->
  requests:int ->
  submit:(Workload.op -> k:('a -> unit) -> unit) ->
  on_answer:('a -> unit) ->
  Workload.t ->
  unit
(** Schedule [requests] requests drawn from the workload over [Net.tree net],
    keeping [concurrency] (default 8) in flight. When a draw finds every
    candidate reserved, that client retries 3 ticks later. [on_answer] sees
    each answer after the request's nodes are released and before its
    client draws again. Does not run the network: the caller drives it
    ({!Net.run}, or {!Net.step} to check an invariant between steps). *)

type stats = {
  submitted : int;
  granted : int;
  rejected : int;
  unanswered : int;  (** [Exhausted] answers (hold-mode epochs only) *)
  messages : int;
  total_bits : int;  (** sum of message sizes over the whole run *)
  max_message_bits : int;
  sim_time : int;
  final_size : int;
  max_wb_bits : int;
  discipline : string;  (** {!Scheduler.name} of the delivery discipline *)
  reorders : int;  (** {!Net.reorders} at the end of the run *)
}

val pp_stats : Format.formatter -> stats -> unit

val run :
  ?seed:int ->
  ?max_delay:int ->
  ?concurrency:int ->
  ?scheduler:Scheduler.discipline ->
  ?sink:Telemetry.Sink.t ->
  shape:Workload.Shape.t ->
  mix:Workload.Mix.t ->
  m:int ->
  w:int ->
  requests:int ->
  unit ->
  stats
(** Build the tree, run a fixed-[U] distributed [(M,W)]-controller
    ([U = n0 + requests]) against [requests] workload requests with the given
    concurrency (default 8), drain the network, and report. [scheduler] and
    [sink] are passed to {!Net.create}, so the run can pick its delivery
    discipline and records full telemetry.
    @raise Failure as {!run_on} does. *)

val run_on :
  ?seed:int ->
  ?concurrency:int ->
  net:Net.t ->
  mix:Workload.Mix.t ->
  requests:int ->
  submit:(Workload.op -> k:(Types.outcome -> unit) -> unit) ->
  unit ->
  int * int * int
(** {!drive} a fresh workload ([seed + 7]) through a controller's [submit]
    over an existing network, run the network dry, and return
    [(granted, rejected, unanswered)].
    @raise Failure as {!Net.run} does. *)
