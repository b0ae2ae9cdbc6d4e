(** Metrics registry: counters, gauges and log-scale histograms.

    Metrics are identified by a name plus an optional label set (Prometheus
    style: [net_messages_total{tag="agent-up"}]). Registering the same
    name/labels twice returns the same underlying instrument, so call sites
    can re-register cheaply instead of threading handles around.

    Snapshots are deterministic: entries are sorted by (name, labels)
    regardless of registration order, so tests and exported dumps never
    depend on hash-table iteration order.

    The hot-path operations ({!inc}, {!add}, {!set}, {!observe}) touch only
    a preallocated record — no allocation, no hashing.

    {2 Domain safety}

    A registry is deliberately {e not} synchronized: the table is a plain
    [Hashtbl] and every instrument is a bare mutable record, so the hot
    path stays lock- and allocation-free. The contract under [Pool]-style
    parallelism is {e per-domain-registry-then-merge}: every unit of
    parallel work owns its registry (usually via its own [Sink]) and the
    joining domain folds the results together with {!merge} after the
    worker is done. Sharing one registry across domains is a data race —
    lost increments at best, a corrupted table at worst — and it breaks
    the [-j N] byte-determinism contract even when it doesn't crash.
    dynlint rule D1 (no-global-mutable-state) exists to keep registries
    from becoming ambient globals that would invite exactly that sharing;
    the [global-state lib/telemetry/metrics.ml] entry in [dynlint.allow]
    points back at this section. *)

type t
(** A registry. *)

type counter
(** Monotonically increasing integer. *)

type gauge
(** Arbitrary integer level (package counts, storage, tree size). *)

type histogram
(** Distribution over non-negative integers in log2-scale buckets: one
    bucket for [v <= 0], then one per power of two up to [2^62] (which
    covers [max_int]), plus a cumulative count and sum. *)

val create : unit -> t

val counter : t -> ?labels:(string * string) list -> string -> counter
val gauge : t -> ?labels:(string * string) list -> string -> gauge
val histogram : t -> ?labels:(string * string) list -> string -> histogram

val inc : counter -> unit
val add : counter -> int -> unit

val set : gauge -> int -> unit

val observe : histogram -> int -> unit

val counter_value : counter -> int
val gauge_value : gauge -> int

val bucket_of : int -> int
(** The bucket index a value falls into: 0 for [v <= 0], else
    [ceil_log2 v + 1] (so bucket [k >= 1] holds [2^(k-2) < v <= 2^(k-1)]).
    Exposed for the bucketing tests. *)

val bucket_count : int
(** Number of buckets (64): index 0 plus one per exponent 0..62. *)

val bucket_upper : int -> int
(** Inclusive upper bound of a bucket: [bucket_upper 0 = 0],
    [bucket_upper k = 2^(k-1)] for [k >= 1]. *)

(** A deterministic, immutable view of one metric. *)
type value =
  | Counter of int
  | Gauge of int
  | Histogram of { count : int; sum : int; buckets : (int * int) list }
      (** [buckets] maps the inclusive upper bound of each non-empty bucket
          to its (non-cumulative) occupancy, in increasing bound order. *)

type entry = {
  name : string;
  labels : (string * string) list;  (** sorted by key *)
  value : value;
}

val snapshot : t -> entry list
(** All registered metrics, sorted by (name, labels). *)

val merge : into:t -> t -> unit
(** Fold one registry into another, instrument by instrument (matched on
    name and label set, registering in [into] as needed): counters and
    histogram buckets/count/sum add; gauges take the maximum (when joining
    per-task registries the gauges in use are levels and high-water marks,
    for which max is the meaningful combination). [src] is left untouched.

    This is the join half of the per-domain-registry-then-merge contract
    (see {e Domain safety} above): call it from the domain that owns
    [into], after the domain that filled [src] has finished — never
    concurrently with writes to either registry.
    @raise Invalid_argument if a metric exists in both registries with
    different instrument kinds. *)
