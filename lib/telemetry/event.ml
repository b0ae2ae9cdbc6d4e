type addr = Exact of int | Parent_of of int

type ctx = { trace : int; span : int; parent : int }

(* Shared constant: the no-causality context. Layers running without a sink
   store this directly (no per-message allocation). *)
let no_ctx = { trace = -1; span = -1; parent = -1 }

let has_ctx c = c.trace >= 0

type kind =
  | Sched of { discipline : string }
  | Send of { src : int; addr : addr; tag : string; bits : int }
  | Deliver of {
      src : int;
      dst : int;
      tag : string;
      seq : int;
      forwarded : bool;
      reordered : bool;
    }
  | Permit_span of {
      ctrl : string;
      node : int;
      aid : int;
      outcome : string;
      submitted : int;
      latency : int;
      moves : int;
    }
  | Package_created of { ctrl : string; level : int; size : int }
  | Package_split of { ctrl : string; level : int }
  | Package_static of { ctrl : string; node : int; size : int }
  | Package_join of { ctrl : string; from_ : int; to_ : int }
  | Reject_wave of { ctrl : string; node : int }
  | Epoch of { ctrl : string; epoch : int; n : int }
  | Estimate of { ctrl : string; node : int; value : int; truth : int }
  | Phase of {
      name : string;
      count : int;
      alloc_bytes : int;
      minor : int;
      major : int;
      wall_ns : int;
    }

type t = { time : int; ctx : ctx; kind : kind }

let to_json { time; ctx; kind } =
  let open Json in
  let fields =
    match kind with
    | Sched { discipline } ->
        [ ("ev", String "sched"); ("discipline", String discipline) ]
    | Send { src; addr; tag; bits } ->
        let dst, dst_kind =
          match addr with
          | Exact v -> (v, "exact")
          | Parent_of v -> (v, "parent_of")
        in
        [ ("ev", String "send"); ("src", Int src); ("dst", Int dst);
          ("dst_kind", String dst_kind); ("tag", String tag); ("bits", Int bits) ]
    | Deliver { src; dst; tag; seq; forwarded; reordered } ->
        [ ("ev", String "deliver"); ("src", Int src); ("dst", Int dst);
          ("tag", String tag); ("seq", Int seq); ("forwarded", Bool forwarded);
          ("reordered", Bool reordered) ]
    | Permit_span { ctrl; node; aid; outcome; submitted; latency; moves } ->
        [ ("ev", String "permit_span"); ("ctrl", String ctrl); ("node", Int node);
          ("aid", Int aid); ("outcome", String outcome); ("submitted", Int submitted);
          ("latency", Int latency) ]
        @ (if moves >= 0 then [ ("moves", Int moves) ] else [])
    | Package_created { ctrl; level; size } ->
        [ ("ev", String "pkg_created"); ("ctrl", String ctrl); ("level", Int level);
          ("size", Int size) ]
    | Package_split { ctrl; level } ->
        [ ("ev", String "pkg_split"); ("ctrl", String ctrl); ("level", Int level) ]
    | Package_static { ctrl; node; size } ->
        [ ("ev", String "pkg_static"); ("ctrl", String ctrl); ("node", Int node);
          ("size", Int size) ]
    | Package_join { ctrl; from_; to_ } ->
        [ ("ev", String "pkg_join"); ("ctrl", String ctrl); ("from", Int from_);
          ("to", Int to_) ]
    | Reject_wave { ctrl; node } ->
        [ ("ev", String "reject_wave"); ("ctrl", String ctrl); ("node", Int node) ]
    | Epoch { ctrl; epoch; n } ->
        [ ("ev", String "epoch"); ("ctrl", String ctrl); ("epoch", Int epoch);
          ("n", Int n) ]
    | Estimate { ctrl; node; value; truth } ->
        [ ("ev", String "estimate"); ("ctrl", String ctrl); ("node", Int node);
          ("value", Int value); ("truth", Int truth) ]
    | Phase { name; count; alloc_bytes; minor; major; wall_ns } ->
        [ ("ev", String "phase"); ("name", String name); ("count", Int count);
          ("alloc_bytes", Int alloc_bytes); ("minor", Int minor);
          ("major", Int major); ("wall_ns", Int wall_ns) ]
  in
  (* Causality fields only appear on events that carry a context, so traces
     from un-instrumented layers (and pre-causality traces) stay compact and
     re-readable: [of_json] defaults every absent field to -1. *)
  let fields =
    if not (has_ctx ctx) then fields
    else if ctx.parent >= 0 then
      ("trace", Int ctx.trace) :: ("span", Int ctx.span)
      :: ("parent", Int ctx.parent) :: fields
    else ("trace", Int ctx.trace) :: ("span", Int ctx.span) :: fields
  in
  Obj (("time", Int time) :: fields)

let of_json j =
  let open Json in
  let time = to_int (member "time" j) in
  let int k = to_int (member k j) in
  let str k = to_str (member k j) in
  let opt_int k = match member k j with Null -> -1 | v -> to_int v in
  let ctx =
    match opt_int "trace" with
    | -1 -> no_ctx
    | trace -> { trace; span = opt_int "span"; parent = opt_int "parent" }
  in
  let kind =
    match str "ev" with
    | "sched" -> Sched { discipline = str "discipline" }
    | "send" ->
        let addr =
          match str "dst_kind" with
          | "exact" -> Exact (int "dst")
          | "parent_of" -> Parent_of (int "dst")
          | s -> failwith ("Event.of_json: bad dst_kind " ^ s)
        in
        Send { src = int "src"; addr; tag = str "tag"; bits = int "bits" }
    | "deliver" ->
        Deliver
          {
            src = int "src";
            dst = int "dst";
            tag = str "tag";
            seq = int "seq";
            forwarded = to_bool (member "forwarded" j);
            reordered = to_bool (member "reordered" j);
          }
    | "permit_span" ->
        Permit_span
          {
            ctrl = str "ctrl";
            node = int "node";
            aid = int "aid";
            outcome = str "outcome";
            submitted = int "submitted";
            latency = int "latency";
            moves = opt_int "moves";
          }
    | "pkg_created" ->
        Package_created { ctrl = str "ctrl"; level = int "level"; size = int "size" }
    | "pkg_split" -> Package_split { ctrl = str "ctrl"; level = int "level" }
    | "pkg_static" ->
        Package_static { ctrl = str "ctrl"; node = int "node"; size = int "size" }
    | "pkg_join" -> Package_join { ctrl = str "ctrl"; from_ = int "from"; to_ = int "to" }
    | "reject_wave" -> Reject_wave { ctrl = str "ctrl"; node = int "node" }
    | "epoch" -> Epoch { ctrl = str "ctrl"; epoch = int "epoch"; n = int "n" }
    | "estimate" ->
        Estimate
          { ctrl = str "ctrl"; node = int "node"; value = int "value"; truth = int "truth" }
    | "phase" ->
        Phase
          {
            name = str "name";
            count = int "count";
            alloc_bytes = int "alloc_bytes";
            minor = int "minor";
            major = int "major";
            wall_ns = int "wall_ns";
          }
    | s -> failwith ("Event.of_json: unknown event kind " ^ s)
  in
  { time; ctx; kind }

let to_line e = Json.to_string (to_json e)
let of_line s = of_json (Json.of_string s)
let pp ppf e = Format.pp_print_string ppf (to_line e)
