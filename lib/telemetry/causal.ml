(* Offline causal-chain reconstruction over a trace (an [Event.t] list in
   file order). The unit of causality is the span: one send→deliver hop of
   one message, minted by [Net] at send time. Spans link to parents (the
   span whose delivery continuation issued the send), and every span carries
   the trace id of its chain's root. This module rebuilds the spans, checks
   the invariants the instrumentation promises, and derives the summary
   statistics tracecat prints; the causality-invariant tests run over the
   same code, so the analyzer and the tests cannot drift apart. *)

type span = {
  id : int;
  trace : int;
  parent : int;
  tag : string;
  src : int;
  bits : int;
  send_time : int;
  mutable dst : int;  (* -1 until delivered *)
  mutable deliver_time : int;  (* -1 until delivered *)
  mutable forwarded : bool;
  mutable reordered : bool;
}

let delivered s = s.deliver_time >= 0

(* ------------------------------------------------------------------ *)
(* reconstruction                                                      *)

let spans events =
  let tbl = Hashtbl.create 1024 in
  let rev = ref [] in
  List.iter
    (fun (e : Event.t) ->
      if Event.has_ctx e.ctx then
        match e.kind with
        | Event.Send { src; addr = _; tag; bits } ->
            let s =
              {
                id = e.ctx.span;
                trace = e.ctx.trace;
                parent = e.ctx.parent;
                tag;
                src;
                bits;
                send_time = e.time;
                dst = -1;
                deliver_time = -1;
                forwarded = false;
                reordered = false;
              }
            in
            if not (Hashtbl.mem tbl s.id) then begin
              Hashtbl.add tbl s.id s;
              rev := s :: !rev
            end
        | Event.Deliver { dst; forwarded; reordered; _ } -> (
            match Hashtbl.find_opt tbl e.ctx.span with
            | Some s when not (delivered s) ->
                s.dst <- dst;
                s.deliver_time <- e.time;
                s.forwarded <- forwarded;
                s.reordered <- reordered
            | _ -> ())
        | _ -> ())
    events;
  (List.rev !rev, tbl)

(* ------------------------------------------------------------------ *)
(* invariants                                                          *)

let check events =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let sends = Hashtbl.create 1024 in
  let delivers = Hashtbl.create 1024 in
  let send_total = ref 0 and deliver_total = ref 0 and with_ctx = ref 0 in
  List.iter
    (fun (e : Event.t) ->
      let ctx = e.ctx in
      if Event.has_ctx ctx then incr with_ctx;
      match e.kind with
      | Event.Send _ ->
          incr send_total;
          if not (Event.has_ctx ctx) then
            err "send at t=%d carries no causal context" e.time
          else if Hashtbl.mem sends ctx.span then
            err "span %d minted by two sends" ctx.span
          else Hashtbl.add sends ctx.span ctx
      | Event.Deliver { seq; _ } ->
          incr deliver_total;
          if not (Event.has_ctx ctx) then
            err "deliver seq=%d at t=%d carries no causal context" seq e.time
          else begin
            (match Hashtbl.find_opt sends ctx.span with
            | None ->
                err "deliver seq=%d links to span %d but no send minted it" seq
                  ctx.span
            | Some sctx ->
                if sctx.Event.trace <> ctx.trace || sctx.Event.parent <> ctx.parent
                then
                  err
                    "span %d: deliver context (trace %d, parent %d) disagrees \
                     with its send (trace %d, parent %d)"
                    ctx.span ctx.trace ctx.parent sctx.Event.trace
                    sctx.Event.parent);
            if Hashtbl.mem delivers ctx.span then
              err "span %d delivered twice" ctx.span
            else Hashtbl.add delivers ctx.span ()
          end
      | _ -> ())
    events;
  if !send_total > 0 && !with_ctx = 0 then
    err "trace has %d sends but no event carries causal context" !send_total;
  (* every send must be consumed by exactly one deliver (dangling sends mean
     the run ended mid-flight — tolerated only if the queue drained) *)
  Hashtbl.iter
    (fun span _ ->
      if not (Hashtbl.mem delivers span) then
        err "span %d was sent but never delivered" span)
    sends;
  (* parent links must form a forest: a parent is either another send's span,
     a scheduled-action root (id < any child, never a send), or absent; and
     walking parents must terminate without revisiting a span. Spans whose
     ancestor chain has already been cleared are memoized in [safe], so the
     whole pass is linear even on traces with very deep chains. *)
  let safe = Hashtbl.create (Hashtbl.length sends) in
  Hashtbl.iter
    (fun span (ctx : Event.ctx) ->
      if ctx.parent >= 0 then begin
        (match Hashtbl.find_opt sends ctx.parent with
        | Some (pctx : Event.ctx) ->
            if pctx.trace <> ctx.trace then
              err "span %d (trace %d) has parent span %d of a different trace %d"
                span ctx.trace ctx.parent pctx.trace
        | None -> ());
        let on_path = Hashtbl.create 8 in
        let rec walk id path =
          if Hashtbl.mem safe id then List.iter (fun p -> Hashtbl.replace safe p ()) path
          else if Hashtbl.mem on_path id then
            err "span %d: cycle in span parentage" span
          else begin
            Hashtbl.add on_path id ();
            match Hashtbl.find_opt sends id with
            | Some (c : Event.ctx) when c.parent >= 0 -> walk c.parent (id :: path)
            | _ -> List.iter (fun p -> Hashtbl.replace safe p ()) (id :: path)
          end
        in
        walk span []
      end)
    sends;
  match List.sort_uniq String.compare !errors with [] -> Ok () | es -> Error es

(* ------------------------------------------------------------------ *)
(* critical path                                                       *)

type critical_path = {
  hops : int;  (** longest chain of spans linked by parentage *)
  cp_trace : int;  (** trace the longest chain belongs to, -1 when empty *)
  cp_span : int;  (** the chain's deepest span, -1 when empty *)
  start_time : int;  (** send time of the chain's root span *)
  end_time : int;  (** deliver (or send) time of the deepest span *)
}

let critical_path events =
  let ordered, tbl = spans events in
  let depth = Hashtbl.create (Hashtbl.length tbl) in
  let rec depth_of visiting s =
    match Hashtbl.find_opt depth s.id with
    | Some d -> d
    | None ->
        let d =
          if s.parent < 0 || Hashtbl.mem visiting s.id then 1
          else
            match Hashtbl.find_opt tbl s.parent with
            | None -> 1
            | Some p ->
                Hashtbl.add visiting s.id ();
                1 + depth_of visiting p
        in
        Hashtbl.replace depth s.id d;
        d
  in
  let deepest =
    List.fold_left
      (fun acc s ->
        let d = depth_of (Hashtbl.create 8) s in
        match acc with Some (d', _) when d' >= d -> acc | _ -> Some (d, s))
      None ordered
  in
  match deepest with
  | None ->
      { hops = 0; cp_trace = -1; cp_span = -1; start_time = 0; end_time = 0 }
  | Some (hops, s) ->
      let rec root s =
        if s.parent < 0 then s
        else match Hashtbl.find_opt tbl s.parent with None -> s | Some p -> root p
      in
      {
        hops;
        cp_trace = s.trace;
        cp_span = s.id;
        start_time = (root s).send_time;
        end_time = (if delivered s then s.deliver_time else s.send_time);
      }

(* ------------------------------------------------------------------ *)
(* latency histograms                                                  *)

type dist = {
  count : int;
  min_v : int;
  p50 : int;
  p90 : int;
  p99 : int;
  max_v : int;
  mean : float;
}

let dist_of_samples samples =
  let a = Array.of_list samples in
  Array.sort Int.compare a;
  let n = Array.length a in
  let pct p = a.(min (n - 1) (p * n / 100)) in
  {
    count = n;
    min_v = a.(0);
    p50 = pct 50;
    p90 = pct 90;
    p99 = pct 99;
    max_v = a.(n - 1);
    mean = Array.fold_left (fun acc v -> acc +. float_of_int v) 0.0 a /. float_of_int n;
  }

let latency_by_tag events =
  let ordered, _ = spans events in
  let by_tag = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if delivered s then
        let lat = s.deliver_time - s.send_time in
        match Hashtbl.find_opt by_tag s.tag with
        | Some l -> l := lat :: !l
        | None -> Hashtbl.add by_tag s.tag (ref [ lat ]))
    ordered;
  Hashtbl.fold (fun tag l acc -> (tag, dist_of_samples !l) :: acc) by_tag []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* queue depth over simulated time                                     *)

type queue_stats = {
  max_depth : int;
  max_at : int;  (** simulated time at which the max was first reached *)
  time_weighted_mean : float;
  final_depth : int;  (** in-flight messages when the trace ends *)
}

let queue_depth events =
  let depth = ref 0 in
  let max_depth = ref 0 and max_at = ref 0 in
  let area = ref 0.0 and span_t = ref 0 in
  let started = ref false and last_t = ref 0 in
  let bump t d =
    (* a time step backwards means a new concatenated segment (e.g. a
       multi-row bench trace, where each row's simulated clock restarts at
       0): depth keeps counting, the time integral restarts *)
    if !started && t >= !last_t then begin
      area := !area +. (float_of_int !depth *. float_of_int (t - !last_t));
      span_t := !span_t + (t - !last_t)
    end;
    started := true;
    last_t := t;
    depth := !depth + d;
    if !depth > !max_depth then begin
      max_depth := !depth;
      max_at := t
    end
  in
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Send _ -> bump e.time 1
      | Event.Deliver _ -> bump e.time (-1)
      | _ -> ())
    events;
  {
    max_depth = !max_depth;
    max_at = !max_at;
    time_weighted_mean =
      (if !span_t > 0 then !area /. float_of_int !span_t
       else float_of_int !depth);
    final_depth = !depth;
  }

(* ------------------------------------------------------------------ *)
(* odds and ends the analyzer prints                                   *)

let discipline events =
  List.find_map
    (fun (e : Event.t) ->
      match e.kind with Event.Sched { discipline } -> Some discipline | _ -> None)
    events

let trace_count events =
  let traces = Hashtbl.create 64 in
  List.iter
    (fun (e : Event.t) ->
      if Event.has_ctx e.ctx then Hashtbl.replace traces e.ctx.trace ())
    events;
  Hashtbl.length traces

let phases events =
  let tbl = Hashtbl.create 8 and rev = ref [] in
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Phase { name; count; alloc_bytes; minor; major; wall_ns } ->
          let cur =
            match Hashtbl.find_opt tbl name with
            | Some p -> p
            | None ->
                rev := name :: !rev;
                {
                  Profile.name;
                  count = 0;
                  alloc_bytes = 0;
                  minor = 0;
                  major = 0;
                  wall_s = 0.0;
                }
          in
          Hashtbl.replace tbl name
            {
              cur with
              Profile.count = cur.Profile.count + count;
              alloc_bytes = cur.Profile.alloc_bytes + alloc_bytes;
              minor = cur.Profile.minor + minor;
              major = cur.Profile.major + major;
              wall_s = cur.Profile.wall_s +. (float_of_int wall_ns /. 1e9);
            }
      | _ -> ())
    events;
  List.rev_map (Hashtbl.find tbl) !rev
