(** The typedtree pass: D1 (global-state) and D7 (parallel-race) over the
    [.cmt] units that [dune build @check] produces; D11 (zero-alloc) is
    {!Lint_alloc}.

    - [D1]: a module-level binding (nested modules included, functor
      bodies not) whose value, outside any function body, builds or
      reaches mutable state: a sub-expression whose type is a [ref], an
      array, [bytes] or one of D7's mutable containers ([Rng.t] among
      them), or a record literal with a mutable field. The walk stops at
      function boundaries, so a module-level function that builds any of
      these per call is silent, while a closure that captures a
      module-level [Hashtbl.t] is not. One finding per binding, at the
      first such sub-expression. [let () =] entry points are skipped:
      they keep nothing under a name.
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

    Path and type heads are matched by suffix on "__"-split components
    ({!Cmt_load.norm_path}), so wrapped libraries ([Mylib__Pool.map]) and
    module aliases both match. Types are read as written, not expanded: a
    local abbreviation of [Hashtbl.t] is not recognized.

    Findings respect the same allow file and inline [dynlint: allow]
    comments as the parsetree pass, through the shared {!Lint.emitter}. *)

val lint_units : emitter:Lint.emitter -> Cmt_load.unit_info list -> unit
(** D1 and D7 over preloaded units, one scan per unit. *)
