(** Schedule-exploration harness: run one scenario under every delivery
    discipline × a sweep of seeds and collect invariant violations.

    The paper's guarantees are schedule-free — safety, liveness and the
    estimator bounds must hold under {e every} asynchronous execution, not
    just the one seed a benchmark bakes in. This module is the sweep engine;
    the scenarios themselves (distributed controllers, estimators) live with
    their test suites, since they sit above [simnet] in the library stack.

    A scenario receives a [Scheduler.discipline] and a seed, builds its own
    {!Net} with them, runs, and reports the invariants it checked: an empty
    violation list means every invariant held under that schedule. *)

type run = {
  discipline : Scheduler.discipline;
  seed : int;
  violations : string list;  (** one human-readable line per broken invariant *)
  reorders : int;  (** {!Net.reorders} of the scenario's network at the end *)
}

val sweep :
  ?jobs:int ->
  seeds:int list ->
  (discipline:Scheduler.discipline -> seed:int -> string list * int) ->
  run list
(** Run the scenario once per discipline of {!Scheduler.defaults} × seed
    and collect the outcomes. The scenario returns
    its violation list and the network's final reorder count. An exception
    escaping the scenario is recorded as a violation rather than aborting
    the sweep.

    [jobs] (default [Pool.default_jobs ()], i.e. [$DYNNET_JOBS] or 1) fans
    the cells out over that many domains with {!Pool.map}. Each scenario
    invocation owns its network, tree and RNG, so the returned list —
    order included — is identical whatever the parallelism. *)

val failures : run list -> run list
(** The runs that reported at least one violation. *)

val reorder_free : run list -> bool
(** True when no run of the sweep delivered any message out of per-link
    send order (the FIFO-family disciplines must satisfy this). *)

val pp_run : Format.formatter -> run -> unit
(** One line: discipline, seed, reorder count and any violations. *)
