(** D11 [zero-alloc]: conservative static verification that functions
    annotated [[@@dynlint.zero_alloc]] allocate nothing on any non-raising
    path.

    Flagged: closure creation (unless the closure is closed — no free
    variables — and therefore static), tuple/record/array/variant-with-
    payload construction (unless fully constant), [ref] (unless let-bound
    and eliminable to a stack slot), boxed-float results (float-returning
    calls into unproven callees, flat-float-record field reads), partial
    application, polymorphic compare, [lazy]/objects/first-class modules,
    and calls into functions that are neither no-alloc primitives nor
    annotated ([check] or [assume]) in any scanned unit.

    Exempt: branches that always raise, calls through function-typed
    values (parameters, stored continuations — the supplier's contract),
    and string/float literals (allocated once at link time, not per call).

    Interprocedural reasoning: same-unit callees reached by ident are
    chased and memoized, with failures reported at the annotated call
    site; cross-module callees resolve through the table of annotated
    declarations of every scanned unit.
    [[@@dynlint.zero_alloc assume]] enters the table unverified — the
    escape hatch for externals. See DESIGN.md "Allocation discipline". *)

val lint_units : emitter:Lint.emitter -> Cmt_load.unit_info list -> unit
(** Run D11 over preloaded units: every [[@@dynlint.zero_alloc]] value or
    external (check and assume alike) forms the cross-module trusted
    table, then each [check]-mode one is verified against it, emitting
    one finding per allocation site. *)
