(** dynlint: repo-specific determinism & domain-safety lint rules.

    Each rule is motivated by a bug this repo already shipped (or nearly
    shipped); see DESIGN.md "Static analysis". D2-D4 and D6 operate on the
    parsetree (compiler-libs [Parse] + [Ast_iterator]) — no typing pass —
    so they are fast and run on any file that parses, at the cost of a few
    syntactic heuristics. D1 and D7 need types and live in the typedtree
    pass ({!Lint_typed}, reading [.cmt] files); D10 is computed by
    [dynlint.exe] from the {!emitter} every pass shares.

    {2 Rules}

    - [D1 global-state] (typed): a module-level binding (nested modules
      included) whose value, outside any function body, builds or reaches
      a [ref], an array, [bytes], a record literal with a mutable field, or
      a mutable container ([Hashtbl.t], [Rng.t], ...). Such state races
      under [Pool] domains and once broke [-j] byte-determinism;
      module-level [Rng.t] state also breaks seeded replay. [let () =]
      entry points keep nothing under a name and are skipped.
    - [D2 ambient]: [Random.*], [Sys.time], [Unix.gettimeofday]/[time]/
      [gmtime]/[localtime] in [lib/] outside [lib/util/rng.ml]. Only the
      seeded [Rng] and simulated time exist in the paper's model.
    - [D3 poly-compare]: bare polymorphic [compare]/[Stdlib.compare]/
      [Hashtbl.hash], and [=]/[<>]/[==]/[!=] applied directly to a record
      literal. Structural compare on records with mutable fields is
      visit-order dependent; hot paths want monomorphic compares anyway.
    - [D4 unsafe]: [Obj.magic], [Marshal.*], [assert false] in non-test
      code. [assert false] is fine where truly unreachable — annotate it.
    - [D6 stdout]: [print_*]/[Printf.printf]/[Format.printf] in [lib/];
      output must go through telemetry sinks or returned values.
    - [D7 parallel-race] (typed): a closure passed to [Pool.map] or
      [Explore.sweep] captures a mutable value ([ref], [Hashtbl.t],
      [Buffer.t], [Queue.t], [Stack.t], [Atomic.t], [Net.t], [Rng.t],
      [Dtree.t], [Metrics.t], [Sink.t]) defined outside the closure, or
      touches module-level mutable state: shared across domains.
    - [D10 stale-allow] (driver): an allow-file entry or inline allow
      comment that suppressed no finding across the whole run.
    - [D11 zero-alloc] (typed, {!Lint_alloc}): a function annotated
      [[@@dynlint.zero_alloc]] is conservatively verified to allocate
      nothing on any non-raising path; [[@@dynlint.zero_alloc assume]]
      vouches for externals and wrappers the checker cannot see into.
    - [D13 message-flow] (typed, {!Lint_flow}): every constructor of a
      variant [[@@dynlint.tag_universe]] must have at least one
      [Net.send_to]/[Net.send_up] site and at least one installed delivery
      continuation, every [~tag] must name a constructor, and every universe must be a variant
      renderer; the reconstructed send/receive graph is emitted via
      [dynlint --graph].

    Ids D5, D8, D9 and D12 are retired and not reused. D5 (interface
    coverage): the compiler's warning 70, on for [lib/] in [lib/dune],
    makes a missing interface a build error. D8 (tag literals): D13
    covers every tag D8 did. D9 (module-level [Rng.t]): D1 finds an
    [Rng.t] like any other mutable container. D12 (pool discipline):
    [Net.run] checks cell conservation ([Net.pool_check]) whenever it
    drains.

    {2 Allowlisting}

    A finding on line [l] is suppressed when line [l] or line [l-1]
    contains [dynlint: allow <rule-name>] (in a comment by convention; the
    scan is textual). Whole files are suppressed through an allow file
    (see {!load_allow_file}): lines of the form [[pin] <rule-name> <path>],
    [#]-comments and blanks ignored; the path matches any linted file whose
    [/]-separated path ends with it. The optional [pin] keyword marks a
    standing-policy entry that is exempt from D10 staleness — the entry
    documents a contract even while nothing currently violates it. *)

type rule =
  | Global_state  (** D1, typedtree pass *)
  | Ambient  (** D2 *)
  | Poly_compare  (** D3 *)
  | Unsafe  (** D4 *)
  | Stdout  (** D6 *)
  | Parallel_race  (** D7, typedtree pass *)
  | Zero_alloc  (** D11, alloc pass *)
  | Stale_allow  (** D10, driver *)
  | Message_flow  (** D13, flow pass *)

val rule_id : rule -> string
(** ["D1"] .. ["D13"]; D5, D8, D9 and D12 are retired. *)

val rule_name : rule -> string
(** The allowlist token: ["global-state"], ["ambient"], ["poly-compare"],
    ["unsafe"], ["stdout"], ["parallel-race"], ["stale-allow"],
    ["zero-alloc"], ["message-flow"]. *)

val rule_help : rule -> string
(** One-sentence rationale, used as the SARIF rule description. *)

val all_rules : rule list
(** Every rule, in id order. *)

val rule_pass : rule -> string
(** Which phase owns the rule: ["parsetree"] (D2-D4, D6), ["typedtree"]
    (D1, D7), ["alloc"] (D11), ["flow"] (D13) or ["driver"] (D10).
    [dynlint.exe]'s per-pass timing summary and its D10 scope use the
    same names. *)

val rules_table : unit -> string
(** The [dynlint --rules] listing: a header line plus one line per rule
    (id, allow-key, pass, one-line summary), in {!all_rules} order. *)

val rule_of_name : string -> rule option

type related = {
  r_file : string;
  r_line : int;
  r_col : int;
  r_msg : string;
}
(** A secondary location attached to a finding: D13 links the universe
    declaration to its orphan constructor and an unreceivable send to its
    arm. Rendered as SARIF [relatedLocations]. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  msg : string;
  related : related list;
}

val finding_to_string : finding -> string
(** [file:line:col [id rule-name] msg] — the exact line the executable
    prints. *)

val compare_findings : finding -> finding -> int
(** Order by (file, line, col). *)

type allow
(** Parsed allow file: (rule, path-suffix) entries, with pin flags. *)

val no_allow : allow

val load_allow_file : string -> allow
(** @raise Sys_error if the file cannot be read.
    @raise Failure on a malformed line (unknown rule name). *)

(** Which rule groups apply to a file, by where it lives in the tree. *)
type ctx = {
  lib : bool;  (** under [lib/]: D2, D3, D6 *)
  test : bool;  (** test code: D4 does not apply *)
}

val ctx_of_path : string -> ctx
(** Classify a [/]-separated path: [lib/...] is lib code, [test/...] or any
    [.../test/...] segment is test code. *)

type emitter
(** The one finding sink every pass shares: owns allow-file and
    inline-allow suppression, records which suppressions fired and every
    inline allow site seen (for the D10 report), caches source lines so
    each linted source is read once across every pass, and accumulates
    the surviving findings. Make one, hand it to {!lint_tree}, to
    {!register_units} and to each typed pass's [lint_units] in turn, then
    collect with {!emitter_findings} and {!stale_findings}. *)

val make_emitter : ?allow:allow -> ?source_root:string -> unit -> emitter
(** [source_root] (default ["."]) prefixes the workspace-relative source
    paths recorded in cmts when reading sources for inline-allow
    suppression. *)

val emit : ?related:related list -> emitter -> rule -> Location.t -> string -> unit
(** Record one finding at a location unless an allow-file entry or an
    inline allow comment suppresses it. *)

val register_units : emitter -> Cmt_load.unit_info list -> unit
(** Read (and cache) every loaded unit's source, registering its inline
    allow sites, so files with no finding still report stale allows. Call
    it once, after loading and before the typed passes. *)

val related_of_loc : ?msg:string -> Location.t -> related
(** Build a {!related} entry from a location. *)

val emitter_findings : emitter -> finding list
(** Everything emitted so far, sorted and deduplicated. *)

val stale_findings : ?in_scope:(rule -> bool) -> emitter -> finding list
(** D10: non-[pin] allow entries and inline allow comments that suppressed
    nothing across everything the emitter saw. [in_scope] (default:
    everything) restricts the report to rules that actually ran — a
    typed-only invocation must not call a parsetree rule's suppressions
    stale. Sorted by (file, line). *)

val lint_file : emitter -> ?display:string -> ctx:ctx -> string -> unit
(** Parse one [.ml] file and emit every applicable syntactic finding
    (D2-D4, D6) under [display] (default: the path itself). A file that
    does not parse yields a single, unsuppressible D4 finding at the error
    location (an unparseable file cannot be vouched for). *)

val lint_tree : emitter -> root:string -> string list -> unit
(** Walk the given directories (relative to [root]) recursively in sorted
    order and lint every [.ml] with {!lint_file} under its {!ctx_of_path}
    classification. [_build], [.git] and hidden directories are skipped.
    @raise Sys_error when a path does not exist. *)
