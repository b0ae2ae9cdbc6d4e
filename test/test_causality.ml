(* The causality invariants the tracing layer promises (see DESIGN.md's
   Observability section): every deliver links to exactly one send, span
   parentage forms an acyclic forest within one trace, and a message's span
   survives deletion-forwarding — including under the adversarial_lifo
   reordering scheduler. The checks run through [Telemetry.Causal], the same
   engine tracecat uses, so the analyzer and these tests cannot drift. *)

module E = Telemetry.Event
module C = Telemetry.Causal

let run_dist ?scheduler () =
  let sink = Telemetry.Sink.create () in
  let stats =
    Controller.Dist_harness.run ~seed:97 ~concurrency:8 ?scheduler ~sink
      ~shape:(Workload.Shape.Random 96) ~mix:Workload.Mix.churn ~m:96 ~w:12
      ~requests:192 ()
  in
  (sink, stats)

let sends events =
  List.filter (fun e -> match e.E.kind with E.Send _ -> true | _ -> false) events

let delivers events =
  List.filter (fun e -> match e.E.kind with E.Deliver _ -> true | _ -> false) events

let check_or_fail events =
  match C.check events with
  | Ok () -> ()
  | Error errs ->
      Alcotest.failf "causality check failed:\n%s" (String.concat "\n" errs)

(* ------------------------------------------------------------------ *)

let test_dist_run_invariants () =
  let sink, stats = run_dist () in
  let events = Telemetry.Sink.events sink in
  check_or_fail events;
  Alcotest.(check int)
    "one send event per message" stats.Controller.Dist_harness.messages
    (List.length (sends events));
  (* exactly one deliver per send: the drained run pairs them 1:1 *)
  Alcotest.(check int)
    "one deliver per send"
    (List.length (sends events))
    (List.length (delivers events))

let test_deliver_links_to_exactly_one_send () =
  let sink, _ = run_dist () in
  let events = Telemetry.Sink.events sink in
  let send_spans = Hashtbl.create 1024 in
  List.iter
    (fun e ->
      match e.E.kind with
      | E.Send _ ->
          Alcotest.(check bool) "send span is fresh" false
            (Hashtbl.mem send_spans e.E.ctx.E.span);
          Hashtbl.add send_spans e.E.ctx.E.span 0
      | _ -> ())
    events;
  List.iter
    (fun e ->
      match e.E.kind with
      | E.Deliver _ -> (
          match Hashtbl.find_opt send_spans e.E.ctx.E.span with
          | None -> Alcotest.fail "deliver names a span no send minted"
          | Some n ->
              Alcotest.(check int) "span not delivered before" 0 n;
              Hashtbl.replace send_spans e.E.ctx.E.span (n + 1))
      | _ -> ())
    events

let test_chains_acyclic_and_trace_consistent () =
  let sink, _ = run_dist () in
  let events = Telemetry.Sink.events sink in
  let spans, tbl = C.spans events in
  (* ids are minted monotonically, so a parent always precedes its child —
     which is itself an acyclicity proof; verify it holds *)
  List.iter
    (fun (s : C.span) ->
      if s.C.parent >= 0 then begin
        Alcotest.(check bool)
          (Printf.sprintf "parent %d minted before span %d" s.C.parent s.C.id)
          true (s.C.parent < s.C.id);
        match Hashtbl.find_opt tbl s.C.parent with
        | Some p ->
            Alcotest.(check int) "parent shares the trace" p.C.trace s.C.trace;
            Alcotest.(check bool) "parent delivered before child was sent" true
              (p.C.deliver_time <= s.C.send_time)
        | None -> () (* parent is a scheduled-action root, not a message *)
      end)
    spans;
  Alcotest.(check bool) "has spans" true (spans <> []);
  Alcotest.(check bool) "several distinct traces" true (C.trace_count events > 1)

let test_adversarial_lifo_invariants () =
  let sink, stats =
    run_dist ~scheduler:(Scheduler.Adversarial_lifo { window = 16 }) ()
  in
  let events = Telemetry.Sink.events sink in
  (* the adversary must actually have reordered something, or the test
     proves nothing *)
  Alcotest.(check bool) "adversary reordered" true
    (stats.Controller.Dist_harness.reorders > 0);
  check_or_fail events

(* Span parentage must survive deleted-node forwarding: a message sent from
   inside a delivery continuation towards a node that is deleted while the
   message is in flight keeps its span and parent on the (forwarded)
   deliver. Exercised under adversarial_lifo per the issue's contract. *)
let test_parentage_survives_forwarding () =
  let sink = Telemetry.Sink.create () in
  let tree = Dtree.create () in
  let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
  let b = Dtree.add_leaf tree ~parent:a in
  let net =
    Net.create ~seed:3 ~scheduler:(Scheduler.Adversarial_lifo { window = 8 })
      ~sink ~tree ()
  in
  (* hop 1: root -> b; its continuation sends hop 2 to [a], then [a] is
     deleted before hop 2 arrives *)
  Net.send_to net ~src:(Dtree.root tree) ~dst:b ~tag:(Net.intern_tag net "hop1") ~bits:4
    (fun _ ->
      Net.send_to net ~src:b ~dst:a ~tag:(Net.intern_tag net "hop2") ~bits:4 (fun _ -> ());
      Dtree.remove_internal tree a;
      Net.node_deleted net a ~parent:(Dtree.root tree));
  Net.run net;
  let events = Telemetry.Sink.events sink in
  check_or_fail events;
  let find_send tag =
    List.find
      (fun e ->
        match e.E.kind with E.Send { tag = t; _ } -> t = tag | _ -> false)
      events
  in
  let find_deliver span =
    List.find
      (fun e ->
        match e.E.kind with
        | E.Deliver _ -> e.E.ctx.E.span = span
        | _ -> false)
      events
  in
  let s1 = find_send "hop1" and s2 = find_send "hop2" in
  Alcotest.(check int) "hop2 parented on hop1's span" s1.E.ctx.E.span
    s2.E.ctx.E.parent;
  Alcotest.(check int) "hop2 inherits hop1's trace" s1.E.ctx.E.trace
    s2.E.ctx.E.trace;
  let d2 = find_deliver s2.E.ctx.E.span in
  (match d2.E.kind with
  | E.Deliver { forwarded; dst; _ } ->
      Alcotest.(check bool) "hop2 was forwarded" true forwarded;
      Alcotest.(check int) "hop2 adopted by the root" (Dtree.root tree) dst
  | _ -> assert false);
  Alcotest.(check int) "forwarded deliver keeps the parent" s2.E.ctx.E.parent
    d2.E.ctx.E.parent

let test_critical_path_on_known_chain () =
  (* a hand-built three-hop chain: the critical path must be 3 hops from the
     first send to the last deliver *)
  let sink = Telemetry.Sink.create () in
  let tree = Dtree.create () in
  let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
  let b = Dtree.add_leaf tree ~parent:a in
  let net = Net.create ~seed:4 ~sink ~tree () in
  Net.send_to net ~src:(Dtree.root tree) ~dst:a ~tag:(Net.intern_tag net "h1") ~bits:1
    (fun _ ->
      Net.send_to net ~src:a ~dst:b ~tag:(Net.intern_tag net "h2") ~bits:1 (fun _ ->
          Net.send_to net ~src:b ~dst:a ~tag:(Net.intern_tag net "h3") ~bits:1 (fun _ -> ())));
  (* plus a one-hop distractor in its own trace *)
  Net.send_to net ~src:a ~dst:b ~tag:(Net.intern_tag net "solo") ~bits:1 (fun _ -> ());
  Net.run net;
  let events = Telemetry.Sink.events sink in
  check_or_fail events;
  let cp = C.critical_path events in
  Alcotest.(check int) "three hops" 3 cp.C.hops;
  Alcotest.(check int) "two traces" 2 (C.trace_count events);
  let q = C.queue_depth events in
  Alcotest.(check int) "queue drains" 0 q.C.final_depth;
  Alcotest.(check bool) "some depth was observed" true (q.C.max_depth >= 1)

let test_schedule_roots_a_trace () =
  (* a send issued from a scheduled action roots a fresh trace whose parent
     is the action's root id, not another message's span *)
  let sink = Telemetry.Sink.create () in
  let tree = Dtree.create () in
  let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
  let net = Net.create ~seed:5 ~sink ~tree () in
  Net.schedule net ~delay:2 (fun () ->
      Net.send_up net ~src:a ~tag:(Net.intern_tag net "up") ~bits:1 (fun _ -> ()));
  Net.run net;
  let events = Telemetry.Sink.events sink in
  check_or_fail events;
  match sends events with
  | [ s ] ->
      Alcotest.(check bool) "send carries a context" true (E.has_ctx s.E.ctx);
      Alcotest.(check bool) "parented on the scheduled root" true
        (s.E.ctx.E.parent >= 0);
      Alcotest.(check int) "trace is the scheduled root's id" s.E.ctx.E.parent
        s.E.ctx.E.trace
  | l -> Alcotest.failf "expected exactly one send, got %d" (List.length l)

let test_check_rejects_malformed () =
  (* a deliver whose span no send minted must fail the check *)
  let orphan =
    {
      E.time = 1;
      ctx = { E.trace = 9; span = 9; parent = -1 };
      kind =
        E.Deliver
          { src = 0; dst = 1; tag = "x"; seq = 0; forwarded = false; reordered = false };
    }
  in
  (match C.check [ orphan ] with
  | Ok () -> Alcotest.fail "orphan deliver passed the check"
  | Error _ -> ());
  (* a sent span that is never delivered must fail too *)
  let dangling =
    {
      E.time = 0;
      ctx = { E.trace = 3; span = 3; parent = -1 };
      kind = E.Send { src = 0; addr = E.Exact 1; tag = "x"; bits = 1 };
    }
  in
  (match C.check [ dangling ] with
  | Ok () -> Alcotest.fail "undelivered send passed the check"
  | Error _ -> ());
  (* sends without any causal context at all must fail *)
  let bare = { dangling with E.ctx = E.no_ctx } in
  match C.check [ bare ] with
  | Ok () -> Alcotest.fail "context-free send passed the check"
  | Error _ -> ()

let suite =
  ( "causality",
    [
      Alcotest.test_case "dist run satisfies the invariants" `Quick
        test_dist_run_invariants;
      Alcotest.test_case "deliver links to exactly one send" `Quick
        test_deliver_links_to_exactly_one_send;
      Alcotest.test_case "chains acyclic, traces consistent" `Quick
        test_chains_acyclic_and_trace_consistent;
      Alcotest.test_case "invariants hold under adversarial_lifo" `Quick
        test_adversarial_lifo_invariants;
      Alcotest.test_case "parentage survives deleted-node forwarding" `Quick
        test_parentage_survives_forwarding;
      Alcotest.test_case "critical path of a known chain" `Quick
        test_critical_path_on_known_chain;
      Alcotest.test_case "schedule roots a trace" `Quick
        test_schedule_roots_a_trace;
      Alcotest.test_case "check rejects malformed traces" `Quick
        test_check_rejects_malformed;
    ] )
