(** The typedtree pass: D7 (parallel-race) and D9 (rng-taint) over the
    [.cmt] units that [dune build @check] produces; D11 (zero-alloc) is
    {!Lint_alloc}.

    - [D7]: a closure passed to [Pool.map] or [Explore.sweep] captures a
      value of mutable type ([ref], [Hashtbl.t], [Buffer.t], [Queue.t],
      [Stack.t], [Atomic.t], [Net.t], [Rng.t], [Dtree.t], [Metrics.t],
      [Sink.t]) bound outside the closure, or reads
      module-level mutable state — either way the value is shared across
      Pool domains. Closures need not be literal at the call site: a
      closure bound to a local ident first ([let worker x = ... in
      Pool.map worker items]) is chased through the binding, with a
      visited set guarding cycles. Limitation: only idents let-bound in
      the same compilation unit are chased; a closure imported from
      another unit is not.
    - [D9]: an [Rng.t] bound at module level (including nested modules), or
      read from another module's value, is flagged; generators must flow
      from function parameters or a local [Rng.create ~seed]. A module-
      level value whose pattern says nothing about Rng but whose defining
      expression carries an [Rng.t] inside a record field or tuple slot is
      flagged too (the walk stops at function boundaries — a module-level
      function creating a local generator is the sanctioned shape).

    Path and type heads are matched by suffix on "__"-split components
    ({!Cmt_load.norm_path}), so wrapped libraries ([Mylib__Pool.map]) and
    module aliases both match.

    Findings respect the same allow file and inline [dynlint: allow]
    comments as the parsetree pass, through the shared {!Lint.emitter}. *)

val lint_units : emitter:Lint.emitter -> Cmt_load.unit_info list -> unit
(** D7 and D9 over preloaded units, one scan per unit. *)
