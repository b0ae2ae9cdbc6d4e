(* The telemetry library: histogram bucketing, snapshot determinism, JSONL
   round-trips and the end-to-end agreement between the metrics registry and
   the network's legacy counters. *)

module M = Telemetry.Metrics
module E = Telemetry.Event

(* ------------------------------------------------------------------ *)
(* histogram bucketing                                                 *)

let test_bucket_edges () =
  Alcotest.(check int) "v = 0" 0 (M.bucket_of 0);
  Alcotest.(check int) "v < 0" 0 (M.bucket_of (-5));
  Alcotest.(check int) "v = 1" 1 (M.bucket_of 1);
  Alcotest.(check int) "v = 2" 2 (M.bucket_of 2);
  Alcotest.(check int) "v = 3" 3 (M.bucket_of 3);
  Alcotest.(check int) "v = 4" 3 (M.bucket_of 4);
  Alcotest.(check int) "v = 5" 4 (M.bucket_of 5);
  Alcotest.(check bool) "max_int fits" true (M.bucket_of max_int < M.bucket_count);
  (* every bucket's inclusive upper bound maps back into the bucket, and one
     more spills into the next *)
  for k = 1 to M.bucket_count - 2 do
    let hi = M.bucket_upper k in
    Alcotest.(check int) (Printf.sprintf "upper of bucket %d" k) k (M.bucket_of hi);
    if hi < max_int then
      Alcotest.(check int)
        (Printf.sprintf "upper of bucket %d + 1 spills" k)
        (k + 1) (M.bucket_of (hi + 1))
  done

let test_histogram_observe () =
  let r = M.create () in
  let h = M.histogram r "lat" in
  List.iter (M.observe h) [ 0; 1; 1; 3; 1000; max_int ];
  match M.snapshot r with
  | [ { M.name = "lat"; value = M.Histogram { count; sum; buckets }; _ } ] ->
      Alcotest.(check int) "count" 6 count;
      Alcotest.(check int) "sum" (0 + 1 + 1 + 3 + 1000 + max_int) sum;
      (* 0 -> bucket 0 (upper 0); 1,1 -> bucket 1 (upper 1); 3 -> bucket 3
         (upper 4); 1000 -> bucket 11 (upper 1024); max_int -> last bucket *)
      Alcotest.(check (list (pair int int)))
        "occupancy by upper bound"
        [ (0, 1); (1, 2); (4, 1); (1024, 1); (M.bucket_upper (M.bucket_count - 1), 1) ]
        buckets
  | _ -> Alcotest.fail "expected exactly one histogram entry"

(* ------------------------------------------------------------------ *)
(* snapshot determinism                                                *)

let test_snapshot_determinism () =
  (* two registries fed the same instruments in different orders agree *)
  let feed order =
    let r = M.create () in
    List.iter
      (fun i ->
        match i with
        | `C -> M.inc (M.counter r "z_count")
        | `G -> M.set (M.gauge r "a_level") 7
        | `L1 -> M.inc (M.counter r ~labels:[ ("tag", "up") ] "msgs")
        | `L2 -> M.inc (M.counter r ~labels:[ ("tag", "down") ] "msgs"))
      order;
    M.snapshot r
  in
  let s1 = feed [ `C; `G; `L1; `L2 ] in
  let s2 = feed [ `L2; `L1; `G; `C ] in
  Alcotest.(check int) "same length" (List.length s1) (List.length s2);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "name order" a.M.name b.M.name;
      Alcotest.(check (list (pair string string))) "labels" a.M.labels b.M.labels)
    s1 s2;
  (* sorted by (name, labels) *)
  let keys = List.map (fun e -> (e.M.name, e.M.labels)) s1 in
  Alcotest.(check bool) "sorted" true (keys = List.sort compare keys)

let test_reregistration_shares_instrument () =
  let r = M.create () in
  M.inc (M.counter r "hits");
  M.add (M.counter r "hits") 2;
  Alcotest.(check int) "one shared counter" 3 (M.counter_value (M.counter r "hits"));
  M.max_gauge (M.gauge r "hw") 5;
  M.max_gauge (M.gauge r "hw") 3;
  Alcotest.(check int) "max_gauge keeps high water" 5 (M.gauge_value (M.gauge r "hw"))

(* ------------------------------------------------------------------ *)
(* event JSONL round-trip                                              *)

let ev ?(ctx = E.no_ctx) time kind = { E.time; ctx; kind }

let sample_events =
  [
    ev 0 (E.Send { src = 1; addr = E.Exact 2; tag = "up"; bits = 17 });
    ev 3 (E.Send { src = 2; addr = E.Parent_of 2; tag = "dn"; bits = 0 });
    (* causality fields must round-trip: a root span (parent absent) and a
       child span (all three fields) *)
    ev 3
      ~ctx:{ E.trace = 5; span = 5; parent = -1 }
      (E.Send { src = 0; addr = E.Exact 1; tag = "up"; bits = 4 });
    ev 6
      ~ctx:{ E.trace = 5; span = 6; parent = 5 }
      (E.Deliver
         { src = 0; dst = 1; tag = "up"; seq = 2; forwarded = false; reordered = false });
    ev 0 (E.Sched { discipline = "fifo_link" });
    ev 4
      (E.Deliver
         { src = 1; dst = 0; tag = "up"; seq = 0; forwarded = true; reordered = false });
    ev 5
      (E.Deliver
         { src = 2; dst = 0; tag = "dn"; seq = 7; forwarded = false; reordered = true });
    ev 9
      (E.Permit_span
         {
           ctrl = "main";
           node = 5;
           aid = 12;
           outcome = "granted";
           submitted = 2;
           latency = 7;
         });
    ev 9 (E.Package_created { ctrl = "main"; level = 3; size = 8 });
    ev 10 (E.Package_split { ctrl = "main"; level = 3 });
    ev 10 (E.Package_static { ctrl = "main"; node = 5; size = 1 });
    ev 11 (E.Package_join { ctrl = "main"; from_ = 5; to_ = 4 });
    ev 12 (E.Domain_assign { level = 2; size = 6 });
    ev 13 (E.Domain_resize { level = 2; size = 7 });
    ev 14 (E.Domain_cancel { level = 2 });
    ev 15 (E.Reject_wave { ctrl = "main"; node = 0 });
    ev 16 (E.Epoch { ctrl = "adaptive"; epoch = 2; n = 40 });
    ev 17 (E.Estimate { ctrl = "size-est"; node = 0; value = 64; truth = 57 });
    ev 18
      (E.Phase
         {
           name = "drive";
           count = 2;
           alloc_bytes = 123_456;
           minor = 3;
           major = 1;
           top_heap_words = 98_304;
           wall_ns = 1_500_000;
         });
    ev max_int (E.Custom { name = "quote\"and\\slash"; value = -3 });
  ]

let test_event_roundtrip () =
  List.iter
    (fun e ->
      let e' = E.of_line (E.to_line e) in
      if e' <> e then
        Alcotest.failf "round-trip changed %s into %s" (E.to_line e) (E.to_line e'))
    sample_events

let test_jsonl_file_roundtrip () =
  let sink = Telemetry.Sink.create () in
  List.iter (Telemetry.Sink.record sink) sample_events;
  let path = Filename.temp_file "telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Telemetry.Sink.write_jsonl sink path;
      let back = Telemetry.Sink.read_jsonl path in
      Alcotest.(check int) "event count" (List.length sample_events) (List.length back);
      if back <> sample_events then Alcotest.fail "file round-trip changed the trace")

(* A channel sink must write exactly what a memory sink would have rendered
   with to_jsonl: same events back through read_jsonl, including the JSON
   escaping edge cases in [sample_events], and it must retain nothing. *)
let test_channel_sink_roundtrip () =
  (* flush_bytes=32 forces many intermediate flushes; the default exercises
     the single-flush-at-the-end path *)
  List.iter
    (fun flush_bytes ->
      let path = Filename.temp_file "telemetry" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out path in
          let sink = Telemetry.Sink.to_channel ?flush_bytes oc in
          List.iter (Telemetry.Sink.record sink) sample_events;
          Alcotest.(check int) "nothing retained" 0
            (List.length (Telemetry.Sink.events sink));
          Alcotest.(check int) "count" (List.length sample_events)
            (Telemetry.Sink.event_count sink);
          Telemetry.Sink.flush sink;
          close_out oc;
          let back = Telemetry.Sink.read_jsonl path in
          if back <> sample_events then
            Alcotest.fail "channel round-trip changed the trace";
          (* byte-for-byte the same file a memory sink would have written *)
          let mem = Telemetry.Sink.create () in
          List.iter (Telemetry.Sink.record mem) sample_events;
          let written =
            In_channel.with_open_text path In_channel.input_all
          in
          Alcotest.(check string) "bytes equal to_jsonl"
            (Telemetry.Sink.to_jsonl mem) written))
    [ Some 32; None ]

let test_channel_sink_multi_flush () =
  (* a trace well past the 64 KiB default buffer crosses several flush
     boundaries; every line must still come back intact *)
  let n = 5_000 in
  let path = Filename.temp_file "telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = Telemetry.Sink.to_channel oc in
      for i = 1 to n do
        Telemetry.Sink.event sink ~time:i
          (E.Custom { name = Printf.sprintf "tick\"%d\\n" i; value = i })
      done;
      Telemetry.Sink.flush sink;
      close_out oc;
      let back = Telemetry.Sink.read_jsonl path in
      Alcotest.(check int) "all lines back" n (List.length back);
      List.iteri
        (fun i e ->
          let i = i + 1 in
          match e.E.kind with
          | E.Custom { name; value } ->
              Alcotest.(check int) "value" i value;
              Alcotest.(check string) "name" (Printf.sprintf "tick\"%d\\n" i) name
          | _ -> Alcotest.fail "wrong event kind")
        back)

let test_metrics_merge () =
  (* counters and histograms add, gauges keep the max — merging two
     registries equals feeding one registry both loads *)
  let feed r base =
    M.add (M.counter r "msgs") (10 + base);
    M.add (M.counter r ~labels:[ ("tag", "up") ] "tagged") base;
    M.max_gauge (M.gauge r "depth") (3 * base);
    List.iter (M.observe (M.histogram r "lat")) [ base; 2 * base; 100 ]
  in
  let a = M.create () and b = M.create () and both = M.create () in
  feed a 1;
  feed b 5;
  feed both 1;
  feed both 5;
  let merged = M.create () in
  M.merge ~into:merged a;
  M.merge ~into:merged b;
  Alcotest.(check bool) "merge of two equals one fed both" true
    (M.snapshot merged = M.snapshot both);
  (* merging into an empty registry reproduces the source *)
  let copy = M.create () in
  M.merge ~into:copy a;
  Alcotest.(check bool) "merge into empty copies" true (M.snapshot copy = M.snapshot a)

let test_streaming_sink_retains_nothing () =
  let seen = ref 0 in
  let sink = Telemetry.Sink.create ~on_event:(fun _ -> incr seen) () in
  Telemetry.Sink.event sink ~time:1 (E.Custom { name = "x"; value = 1 });
  Telemetry.Sink.event sink ~time:2 (E.Custom { name = "y"; value = 2 });
  Alcotest.(check int) "streamed" 2 !seen;
  Alcotest.(check int) "counted" 2 (Telemetry.Sink.event_count sink);
  Alcotest.(check int) "not retained" 0 (List.length (Telemetry.Sink.events sink))

(* ------------------------------------------------------------------ *)
(* end to end: a distributed run under a sink                          *)

let find_counter snapshot name =
  List.fold_left
    (fun acc e ->
      match e.M.value with
      | M.Counter c when e.M.name = name -> acc + c
      | _ -> acc)
    0 snapshot

let test_dist_run_matches_net_counters () =
  let sink = Telemetry.Sink.create () in
  let rng = Rng.create ~seed:11 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 64) in
  let net = Net.create ~seed:12 ~sink ~tree () in
  let d =
    Controller.Dist.create
      ~params:(Controller.Params.make ~m:128 ~w:16 ~u:(64 + 200))
      ~net ()
  in
  let wl = Workload.make ~seed:13 ~mix:Workload.Mix.churn () in
  let outstanding = ref 0 in
  for _ = 1 to 200 do
    (match Workload.next_op_avoiding wl tree ~forbidden:(fun _ -> false) with
    | Some op ->
        incr outstanding;
        Controller.Dist.submit d op ~k:(fun _ -> decr outstanding)
    | None -> ());
    Net.run net
  done;
  Alcotest.(check int) "drained" 0 !outstanding;
  let snap = M.snapshot (Telemetry.Sink.metrics sink) in
  Alcotest.(check int) "net_messages_total = Net.messages" (Net.messages net)
    (find_counter snap "net_messages_total");
  Alcotest.(check int) "net_bits_total = Net.total_bits" (Net.total_bits net)
    (find_counter snap "net_bits_total");
  Alcotest.(check int) "per-tag counters sum to the total" (Net.messages net)
    (find_counter snap "net_tag_messages_total");
  Alcotest.(check int) "legacy tag table agrees" (Net.messages net)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (Net.messages_by_tag net));
  (* one Send event per message *)
  let sends =
    List.length
      (List.filter
         (fun e -> match e.E.kind with E.Send _ -> true | _ -> false)
         (Telemetry.Sink.events sink))
  in
  Alcotest.(check int) "one Send event per message" (Net.messages net) sends;
  (* the per-request spans cover every answered request *)
  let spans =
    List.length
      (List.filter
         (fun e -> match e.E.kind with E.Permit_span _ -> true | _ -> false)
         (Telemetry.Sink.events sink))
  in
  Alcotest.(check int) "one span per answer"
    (Controller.Dist.granted d + Controller.Dist.rejected d)
    spans

let test_forwarded_delivery_recorded () =
  (* a message to a node deleted in flight is recorded as forwarded *)
  let sink = Telemetry.Sink.create () in
  let tree = Dtree.create () in
  let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
  let b = Dtree.add_leaf tree ~parent:a in
  let net = Net.create ~seed:2 ~sink ~tree () in
  Net.send net ~src:b ~addr:(Net.Exact a) ~tag:(Net.intern_tag net "up") ~bits:8
    (fun _ -> ());
  Dtree.remove_internal tree a;
  Net.node_deleted net a ~parent:(Dtree.root tree);
  Net.run net;
  let forwarded =
    List.filter
      (fun e ->
        match e.E.kind with E.Deliver { forwarded; _ } -> forwarded | _ -> false)
      (Telemetry.Sink.events sink)
  in
  Alcotest.(check int) "one forwarded delivery" 1 (List.length forwarded);
  Alcotest.(check int) "counter agrees" 1
    (find_counter
       (M.snapshot (Telemetry.Sink.metrics sink))
       "net_forwarded_deliveries_total")

(* Every rotation of a distributed Section 5 protocol shows in its trace:
   one [Epoch] event under the protocol's name and one [ctrl_epochs_total]
   increment. Each protocol runs a sequential churn stream on its own sink. *)
let test_epoch_events_per_rotation () =
  let check name start =
    let sink = Telemetry.Sink.create () in
    let tree = Workload.Shape.build (Rng.create ~seed:21) (Workload.Shape.Random 24) in
    let net = Net.create ~seed:22 ~sink ~tree () in
    let submit, epochs = start net tree in
    let wl = Workload.make ~seed:23 ~mix:Workload.Mix.churn () in
    let rec pump i = if i > 0 then submit (Workload.next_op wl tree) (fun () -> pump (i - 1)) in
    pump 120;
    Net.run net;
    let events =
      List.length
        (List.filter
           (fun e -> match e.E.kind with E.Epoch { ctrl; _ } -> ctrl = name | _ -> false)
           (Telemetry.Sink.events sink))
    in
    Alcotest.(check bool) (name ^ ": rotated") true (epochs () > 0);
    Alcotest.(check int) (name ^ ": one Epoch event per rotation") (epochs ()) events;
    Alcotest.(check int) (name ^ ": ctrl_epochs_total") (epochs ())
      (find_counter (M.snapshot (Telemetry.Sink.metrics sink)) "ctrl_epochs_total")
  in
  let module Se = Estimator.Size_estimation in
  let module Na = Estimator.Name_assignment in
  let module St = Estimator.Subtree_estimator_dist in
  let module Md = Estimator.Majority_commit_dist in
  check "size-est" (fun net _ ->
      let p = Se.create ~net () in
      ((fun op k -> Se.submit p op ~k), fun () -> Se.epochs p));
  check "names" (fun net _ ->
      let p = Na.create ~net () in
      ((fun op k -> Na.submit p op ~k), fun () -> Na.epochs p));
  check "subtree-est" (fun net _ ->
      let p = St.create ~net () in
      ((fun op k -> St.submit p op ~k), fun () -> St.epochs p));
  check "census" (fun net tree ->
      let p = Md.create ~m:100 ~net ~initial_votes:(fun v -> v mod 2 = 0) () in
      ( (fun op k ->
          Md.submit_join p ~parent:(Workload.request_site tree op) ~vote:true ~k:(fun _ -> k ())),
        fun () -> Md.epochs p ))

let test_messages_by_tag_sorted () =
  let tree = Dtree.create () in
  let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
  let net = Net.create ~seed:5 ~tree () in
  List.iter
    (fun tag ->
      Net.send net ~src:a ~addr:(Net.Parent_of a) ~tag:(Net.intern_tag net tag)
        ~bits:1 (fun _ -> ()))
    [ "zeta"; "alpha"; "mid"; "alpha" ];
  Net.run net;
  Alcotest.(check (list (pair string int)))
    "sorted by tag" [ ("alpha", 2); ("mid", 1); ("zeta", 1) ]
    (Net.messages_by_tag net)

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
      Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
      Alcotest.test_case "snapshot determinism" `Quick test_snapshot_determinism;
      Alcotest.test_case "re-registration shares" `Quick test_reregistration_shares_instrument;
      Alcotest.test_case "event json round-trip" `Quick test_event_roundtrip;
      Alcotest.test_case "jsonl file round-trip" `Quick test_jsonl_file_roundtrip;
      Alcotest.test_case "channel sink round-trip" `Quick test_channel_sink_roundtrip;
      Alcotest.test_case "channel sink multi-flush" `Quick test_channel_sink_multi_flush;
      Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
      Alcotest.test_case "streaming sink" `Quick test_streaming_sink_retains_nothing;
      Alcotest.test_case "dist run matches net counters" `Quick
        test_dist_run_matches_net_counters;
      Alcotest.test_case "forwarded delivery recorded" `Quick
        test_forwarded_delivery_recorded;
      Alcotest.test_case "messages_by_tag sorted" `Quick test_messages_by_tag_sorted;
      Alcotest.test_case "one Epoch event per rotation" `Quick test_epoch_events_per_rotation;
    ] )
