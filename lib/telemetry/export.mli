(** Exporters: Prometheus text format over a metrics registry, a
    Chrome/Perfetto rendering of a trace, and a file helper. All output is
    deterministic (snapshot order is sorted; see {!Metrics.snapshot}). *)

val prometheus : Metrics.t -> string
(** The Prometheus text exposition format: a [# TYPE] header per family,
    [name{label="v"} value] samples; histograms expand to cumulative
    [_bucket{le="..."}] samples plus [_sum] and [_count]. *)

val perfetto : Event.t list -> string
(** The trace as Chrome/Perfetto [trace_event] JSON (loadable at
    ui.perfetto.dev or chrome://tracing). Completed spans render as ["X"]
    complete events on the track of their trace id — one causal chain per
    row — carrying span/parent/src/dst/bits args; other events render as
    instants. [ts] is the simulated clock, exported as microseconds. *)

val write_file : string -> string -> unit
(** [write_file path contents]. *)
