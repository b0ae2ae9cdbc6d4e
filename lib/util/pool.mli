(** Order-preserving parallel map for deterministic fan-out.

    Every sweep this repository runs — the E1-E15 benchmark rows, the
    discipline × seed schedule explorations, multi-seed CLI runs — is a set
    of {e independent, seeded} simulations: each task builds its own [Rng],
    [Dtree], [Net] and (optionally) [Telemetry.Sink], so tasks share no
    mutable state and the only coordination needed is handing out work and
    collecting results {e in input order}. Under that contract the parallel
    results are bit-identical to a sequential run; parallelism lives
    entirely outside the simulated model.

    Jobs default to [1] (strictly sequential, no domain is ever spawned),
    overridable process-wide with the [DYNNET_JOBS] environment variable and
    per call with [?jobs]. *)

val env_var : string
(** ["DYNNET_JOBS"]. *)

val default_jobs : unit -> int
(** The process-wide default parallelism: [$DYNNET_JOBS] when set to a
    positive integer, else [1]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] is [List.map f items] evaluated by the calling
    domain and [jobs - 1] spawned OCaml 5 domains, order-preserving. Each
    domain claims the next unclaimed item from one shared counter, so an
    item costs one atomic increment to hand out. [jobs] defaults to
    {!default_jobs}[ ()], is clamped to the item count and to [64] (the
    runtime supports at most 128 live domains), and with [jobs <= 1] every
    item runs on the calling domain and no domain is spawned. A spawn that
    fails leaves the items to the domains already running.

    Every item runs to completion, and every spawned domain is joined
    before [map] returns or raises. If any item raises, the exception of
    the {e lowest-indexed} failing item is re-raised with its original
    backtrace. A nested call spawns domains of its own, so a task that
    fans out again should pass [~jobs:1]. *)
