(** D13 message-flow: the send/receive graph of the tag protocol.

    Variant renderers carrying [[@@dynlint.tag_universe]] declare the tag
    vocabulary; every [Net.send_to]/[Net.send_up] site whose [~tag]
    argument statically mentions a universe constructor is an edge, and
    the site's unlabelled arrow-typed argument is the installed receiver
    (a record field access names the continuation slot, [ignore] means
    dropped). Findings: a constructor with no send site (orphan arm), a
    constructor whose every send drops its continuation (unreceivable), a
    send whose tag names no universe constructor (a string literal
    included), and a [[@@dynlint.tag_universe]] binding that is not a
    variant renderer.

    The reconstruction is also the [dynlint --graph] artifact: {!to_dot}
    renders senders -> tags -> receivers, {!to_json} writes the graph as
    data for other tooling. *)

type arm = {
  a_ctor : string;
  a_wire : string option;
      (** the renderer's string for this arm, when one is visible *)
  a_loc : Location.t;
}

type universe = {
  u_key : string;  (** ["Dist.suffix"]: owning unit + type name *)
  u_unit : string;
  u_loc : Location.t;  (** the renderer binding *)
  u_arms : arm list;  (** every constructor, sent or not *)
}

type edge = {
  e_universe : string;
  e_ctor : string;
  e_sender : string;  (** ["Unit.innermost-enclosing-binding"] *)
  e_receiver : string option;  (** [None]: the continuation is dropped *)
  e_loc : Location.t;  (** the send site *)
}

type graph = { g_universes : universe list; g_edges : edge list }

val lint_units : emitter:Lint.emitter -> Cmt_load.unit_info list -> graph
(** Reconstruct the graph and emit the D13 findings through the emitter.
    Returns the graph so the driver can render [--graph] artifacts from
    the same pass. *)

val to_json : graph -> string
(** One-line JSON document, newline-terminated: [universes] (key, unit,
    file, line, arms with ctor, wire, file, line) and [edges] (universe,
    ctor, sender, receiver, file, line); [null] for a missing wire string
    or a dropped receiver. *)

val to_dot : graph -> string
(** Graphviz rendering: senders (ellipses) -> tag constructors (boxes,
    orphans red) -> receivers (diamonds). *)
