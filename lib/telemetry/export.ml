let label_str labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
      ^ "}"

let type_name = function
  | Metrics.Counter _ -> "counter"
  | Metrics.Gauge _ -> "gauge"
  | Metrics.Histogram _ -> "histogram"

let prometheus m =
  let buf = Buffer.create 1024 in
  let last_header = ref "" in
  List.iter
    (fun (e : Metrics.entry) ->
      (* one TYPE header per family, before its first sample *)
      if e.name <> !last_header then begin
        last_header := e.name;
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" e.name (type_name e.value))
      end;
      match e.value with
      | Metrics.Counter v | Metrics.Gauge v ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" e.name (label_str e.labels) v)
      | Metrics.Histogram { count; sum; buckets } ->
          let cum = ref 0 in
          List.iter
            (fun (upper, occ) ->
              cum := !cum + occ;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" e.name
                   (label_str (e.labels @ [ ("le", string_of_int upper) ]))
                   !cum))
            buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" e.name
               (label_str (e.labels @ [ ("le", "+Inf") ]))
               count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %d\n" e.name (label_str e.labels) sum);
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" e.name (label_str e.labels) count))
    (Metrics.snapshot m);
  Buffer.contents buf

(* Chrome/Perfetto trace_event JSON. Each completed span (send→deliver)
   becomes one "X" complete event on the row of its trace id, so ui.perfetto
   dev lays a causal chain out as one horizontal track; everything else
   (controller/estimator events, phases, un-delivered sends) becomes an "i"
   instant. ts is the simulated clock exported as microseconds. *)
let perfetto events =
  let base kvs = ("pid", Json.Int 1) :: kvs in
  let ordered, _tbl = Causal.spans events in
  let span_events =
    List.map
      (fun (s : Causal.span) ->
        if Causal.delivered s then
          Json.Obj
            (base
               [
                 ("tid", Json.Int (max 0 s.Causal.trace));
                 ("ph", Json.String "X");
                 ("name", Json.String s.Causal.tag);
                 ("cat", Json.String "net");
                 ("ts", Json.Int s.Causal.send_time);
                 ("dur", Json.Int (max 1 (s.Causal.deliver_time - s.Causal.send_time)));
                 ( "args",
                   Json.Obj
                     [
                       ("span", Json.Int s.Causal.id);
                       ("parent", Json.Int s.Causal.parent);
                       ("src", Json.Int s.Causal.src);
                       ("dst", Json.Int s.Causal.dst);
                       ("bits", Json.Int s.Causal.bits);
                       ("forwarded", Json.Bool s.Causal.forwarded);
                       ("reordered", Json.Bool s.Causal.reordered);
                     ] );
               ])
        else
          Json.Obj
            (base
               [
                 ("tid", Json.Int (max 0 s.Causal.trace));
                 ("ph", Json.String "i");
                 ("s", Json.String "t");
                 ("name", Json.String (s.Causal.tag ^ " (in flight)"));
                 ("cat", Json.String "net");
                 ("ts", Json.Int s.Causal.send_time);
               ]))
      ordered
  in
  let kind_name (e : Event.t) =
    match Event.to_json e with
    | Json.Obj fields -> (
        match List.assoc_opt "ev" fields with
        | Some (Json.String s) -> s
        | _ -> "event")
    | _ -> "event"
  in
  let instant_events =
    List.filter_map
      (fun (e : Event.t) ->
        match e.kind with
        | Event.Send _ | Event.Deliver _ -> None
        | _ ->
            Some
              (Json.Obj
                 (base
                    [
                      ( "tid",
                        Json.Int
                          (if Event.has_ctx e.ctx then max 0 e.ctx.Event.trace
                           else 0) );
                      ("ph", Json.String "i");
                      ("s", Json.String "t");
                      ("name", Json.String (kind_name e));
                      ("cat", Json.String "ctrl");
                      ("ts", Json.Int e.time);
                      ("args", Event.to_json e);
                    ])))
      events
  in
  let meta =
    Json.Obj
      (base
         [
           ("ph", Json.String "M");
           ("name", Json.String "process_name");
           ("args", Json.Obj [ ("name", Json.String "dynnet") ]);
         ])
  in
  Json.to_string
    (Json.Obj
       [
         ("displayTimeUnit", Json.String "ms");
         ("traceEvents", Json.List ((meta :: span_events) @ instant_events));
       ])
  ^ "\n"

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)
