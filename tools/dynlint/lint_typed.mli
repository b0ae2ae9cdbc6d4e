(** The typedtree pass: D7 (parallel-race), D8 (protocol-conformance) and
    D9 (rng-taint) over the [.cmt] units that [dune build @check]
    produces; D11 (zero-alloc) is {!Lint_alloc}.

    - [D7]: a closure passed to [Pool.map]/[Pool.run]/[Pool.iter]/
      [Explore.sweep] captures a value of mutable type ([ref], [Hashtbl.t],
      [Buffer.t], [Queue.t], [Stack.t], [Atomic.t], [Net.t], [Rng.t],
      [Dtree.t], [Metrics.t], [Sink.t]) bound outside the closure, or reads
      module-level mutable state — either way the value is shared across
      Pool domains. Closures need not be literal at the call site: a
      closure bound to a local ident first ([let worker x = ... in
      Pool.map worker items]) is chased through the binding, with a
      visited set guarding cycles. Limitation: only idents let-bound in
      the same compilation unit are chased; a closure imported from
      another unit is not.
    - [D8]: the string literals flowing into [Net.send ~tag:] (collected
      recursively from the labelled argument, so helper calls like
      [tag t "agent-up"] count), plus {e direct} string-literal arguments
      of the intern boundary ([Net.intern_tag] / [Tag.intern]), are
      compared globally against the literals declared under any [let]
      binding carrying the [[@@dynlint.tag_universe]] attribute.
      Sent-but-undeclared tags are reported at the send or intern literal;
      declared-but-never-sent tags (dead arms) at the declaration literal.
      When the attributed binding is a {e function} — a variant renderer
      like [let suffix_to_string = function Agent_up -> "agent-up" | ...]
      — the dead-arm direction is skipped: match exhaustiveness and the
      unused-constructor warning already make it a compiler guarantee, so
      D8 shrinks to the string boundary. Computed intern arguments (the
      [name ^ "-" ^ suffix_to_string s] joins) are deliberately out of
      scope: the renderer's arms {e are} the universe.
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
(** D7/D8/D9 over preloaded units: per-unit scans, then the global D8
    sent-versus-declared comparison. Touches every unit's source through
    the emitter so finding-free files still register their inline allow
    sites for D10. *)
