(** The unknown-[U] centralized [(M,W)]-controllers of Theorem 3.5.

    No bound on the number of nodes is given in advance. The controller runs
    the iterated fixed-[U] controller ({!Iterated}) in {e epochs}, guessing a
    fresh bound [U_i] from the current size at each epoch start:

    - [By_changes] (Theorem 3.5, first part): [U_i = 2 N_i]; the epoch ends
      after [U_i / 4] topological changes. Move complexity
      [O(n_0 log^2 n_0 log (M/(W+1)) + sum_j log^2 n_j log (M/(W+1)))].
    - [By_doubling] (second part): the epoch ends when the current size
      doubles past the maximum size ever seen before the epoch. Because
      additions within an epoch are bounded only by the remaining permit
      budget, the epoch bound is [U_i = 2 Nmax_i + M_i] (see DESIGN.md,
      interpretation notes); move complexity [O(N log^2 N log (M/(W+1)))]
      whenever [M = O(N)], the regime of all the paper's applications.

    Unused permits (including those stuck in packages) are reclaimed in full
    between epochs — free in the centralized setting; the distributed
    implementation pays the broadcast (Appendix A). *)

type variant = By_changes | By_doubling

type t

val create :
  ?variant:variant ->
  ?reject_mode:Types.reject_mode ->
  ?telemetry:Telemetry.Sink.t ->
  m:int ->
  w:int ->
  tree:Dtree.t ->
  unit ->
  t
(** [variant] defaults to [By_changes].

    With a [telemetry] sink every request is recorded by {!Central.answer},
    every epoch rotation records an [Epoch] event in the trace of the
    request that closed the epoch, and the inner iterated controllers are
    built instrumented, so package life-cycle and reject-wave events flow
    to the same sink, which derives the metrics ({!Telemetry.Sink}).
    Event times are {!Central.clock}. *)

val request : t -> Workload.op -> Types.outcome
val moves : t -> int
val granted : t -> int

val epochs : t -> int
(** Number of completed epochs. *)

val rejecting : t -> bool
