type mode =
  | Memory of { mutable rev_events : Event.t list }
  | Callback of (Event.t -> unit)
  | Channel of { oc : out_channel; buf : Buffer.t }

type t = {
  metrics : Metrics.t;
  mode : mode;
  mutable count : int;
  (* causality state: the next span/trace id to mint, and the ambient
     context installed by [Net] around delivery continuations and scheduled
     actions, so every event recorded inside one is stamped without the
     emitting layer knowing about causality at all. *)
  mutable next_id : int;
  mutable amb_trace : int;
  mutable amb_span : int;
}

let flush_bytes = 64 * 1024

let make ?(next_id = 0) mode =
  if next_id < 0 then invalid_arg "Sink: negative next_id";
  { metrics = Metrics.create (); mode; count = 0; next_id; amb_trace = -1; amb_span = -1 }

let create ?next_id ?on_event () =
  make ?next_id
    (match on_event with
    | Some f -> Callback f
    | None -> Memory { rev_events = [] })

let to_channel ?next_id oc =
  make ?next_id (Channel { oc; buf = Buffer.create flush_bytes })

let metrics t = t.metrics

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let reserve_ids t n =
  if n < 1 then invalid_arg "Sink.reserve_ids: need n >= 1";
  let base = t.next_id in
  t.next_id <- base + n;
  base

let current_trace t = t.amb_trace
let current_span t = t.amb_span

let set_ambient t ~trace ~span =
  t.amb_trace <- trace;
  t.amb_span <- span

let clear_ambient t =
  t.amb_trace <- -1;
  t.amb_span <- -1

let inc m ?labels name = Metrics.inc (Metrics.counter m ?labels name)

(* The one place a metric is updated: each event feeds the instruments of
   its kind (DESIGN.md, "Metrics"), so a registry is a view of the events
   recorded into it, and replaying a trace through [record] rebuilds it. *)
let fold_metrics m (e : Event.t) =
  match e.kind with
  | Sched { discipline } ->
      Metrics.set (Metrics.gauge m ~labels:[ ("discipline", discipline) ] "net_scheduler_info") 1
  | Send { tag; bits; _ } ->
      inc m "net_messages_total";
      Metrics.add (Metrics.counter m "net_bits_total") bits;
      inc m ~labels:[ ("tag", tag) ] "net_tag_messages_total";
      Metrics.observe (Metrics.histogram m "net_message_bits") bits
  | Deliver { forwarded; reordered; _ } ->
      if forwarded then inc m "net_forwarded_deliveries_total";
      if reordered then inc m "net_reorders_total"
  | Permit_span { ctrl; outcome; latency; moves; _ } ->
      inc m ~labels:[ ("ctrl", ctrl); ("outcome", outcome) ] "ctrl_requests_total";
      if moves >= 0 then Metrics.add (Metrics.counter m "ctrl_moves_total") moves
      else
        Metrics.observe
          (Metrics.histogram m ~labels:[ ("ctrl", ctrl) ] "permit_latency_time") latency
  | Package_split { level; _ } ->
      inc m ~labels:[ ("level", string_of_int level) ] "pkg_splits_total"
  | Reject_wave _ -> inc m "ctrl_reject_waves_total"
  | Epoch _ -> inc m "ctrl_epochs_total"
  | Package_created _ | Package_static _ | Package_join _ | Estimate _ | Phase _ -> ()

let record t e =
  t.count <- t.count + 1;
  fold_metrics t.metrics e;
  match t.mode with
  | Memory m -> m.rev_events <- e :: m.rev_events
  | Callback f -> f e
  | Channel c ->
      Buffer.add_string c.buf (Event.to_line e);
      Buffer.add_char c.buf '\n';
      if Buffer.length c.buf >= flush_bytes then begin
        Buffer.output_buffer c.oc c.buf;
        Buffer.clear c.buf
      end

let event ?ctx t ~time kind =
  let ctx =
    match ctx with
    | Some c -> c
    | None ->
        if t.amb_trace < 0 then Event.no_ctx
        else { Event.trace = t.amb_trace; span = t.amb_span; parent = -1 }
  in
  record t { Event.time; ctx; kind }

let flush t =
  match t.mode with
  | Memory _ | Callback _ -> ()
  | Channel c ->
      Buffer.output_buffer c.oc c.buf;
      Buffer.clear c.buf;
      Stdlib.flush c.oc

let events t =
  match t.mode with
  | Memory m -> List.rev m.rev_events
  | Callback _ | Channel _ -> []

let event_count t = t.count

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Event.to_line e);
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

let read_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | "" -> go acc
        | line -> go (Event.of_line line :: acc)
      in
      go [])
