type mode =
  | Memory of { mutable rev_events : Event.t list }
  | Callback of (Event.t -> unit)
  | Channel of { oc : out_channel; buf : Buffer.t; flush_bytes : int }

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

let default_flush_bytes = 64 * 1024

let make ?(next_id = 0) mode =
  if next_id < 0 then invalid_arg "Sink: negative next_id";
  { metrics = Metrics.create (); mode; count = 0; next_id; amb_trace = -1; amb_span = -1 }

let create ?next_id ?on_event () =
  make ?next_id
    (match on_event with
    | Some f -> Callback f
    | None -> Memory { rev_events = [] })

let to_channel ?next_id ?(flush_bytes = default_flush_bytes) oc =
  let flush_bytes = max 1 flush_bytes in
  make ?next_id
    (Channel { oc; buf = Buffer.create (min flush_bytes default_flush_bytes); flush_bytes })

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
let ambient t = (t.amb_trace, t.amb_span)

let set_ambient t ~trace ~span =
  t.amb_trace <- trace;
  t.amb_span <- span

let clear_ambient t =
  t.amb_trace <- -1;
  t.amb_span <- -1

let record t e =
  t.count <- t.count + 1;
  match t.mode with
  | Memory m -> m.rev_events <- e :: m.rev_events
  | Callback f -> f e
  | Channel c ->
      Buffer.add_string c.buf (Event.to_line e);
      Buffer.add_char c.buf '\n';
      if Buffer.length c.buf >= c.flush_bytes then begin
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

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl t))

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
