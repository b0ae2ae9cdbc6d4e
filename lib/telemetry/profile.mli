(** Phase-scoped GC and allocation probes.

    A profile accumulates, per named phase, the deltas of [Gc.quick_stat] /
    {!allocated_bytes} readings taken around {!run}: bytes allocated,
    minor/major collections, the peak top-of-heap observed, and (when a
    clock was injected) wall time. The bench harness surfaces the totals as
    the per-phase [gc_phases] columns of its [--json] output; {!emit} turns
    them into [Event.Phase] trace events for offline analysis (tracecat's
    "top allocating phases").

    GC counters are domain-local in OCaml 5, so a profile is a single-domain
    object: under [Pool]-style parallelism give each task its own profile
    and fold the results back with {!merge} — the same discipline as
    [Metrics] registries. *)

type entry = {
  name : string;
  count : int;  (** number of {!run} brackets folded into this phase *)
  alloc_bytes : int;
  minor : int;
  major : int;
  top_heap_words : int;  (** max observed at any bracket's end *)
  wall_s : float;  (** 0 when the profile has no clock *)
}

type t

val create : ?clock:(unit -> float) -> unit -> t
(** A fresh profile. [clock] supplies wall time in seconds (the library
    takes no ambient time; inject [Unix.gettimeofday] from the binary
    layer); without it [wall_s] stays 0. *)

val allocated_bytes : unit -> float
(** Bytes allocated so far by the calling domain, exact at any instant:
    [Gc.minor_words] plus the words this domain allocated directly in the
    major heap. ([Gc.allocated_bytes] counts the minor heap only at
    collections on OCaml 5.1, so a short bracket can read zero.) *)

val run : t -> name:string -> (unit -> 'a) -> 'a
(** [run t ~name f] measures [f ()] and folds the deltas into phase [name]
    (created on first use; repeated runs accumulate). Re-entrant for
    distinct names; measurement happens even if [f] raises. *)

val entries : t -> entry list
(** Per-phase totals, in first-recorded order. *)

val merge : into:t -> t -> unit
(** Fold another profile's phases into [into]: counts, allocation,
    collections and wall add; peak heap takes the max. Phase order: [into]'s
    phases first, then any new ones in the source's order. *)

val to_json : t -> Json.t
(** An object keyed by phase name; each value carries the {!entry} fields
    except [name]. *)

val emit : t -> Sink.t -> time:int -> unit
(** Record one [Event.Phase] per phase into a sink, at the given simulated
    time. *)
