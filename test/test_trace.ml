module Trace = Workload.Trace

let test_roundtrip () =
  let t =
    Trace.capture ~seed:171 ~shape:(Workload.Shape.Random 30)
      ~mix:Workload.Mix.churn ~steps:120 ()
  in
  Alcotest.(check int) "captured all ops" 120 (List.length t.Trace.ops);
  let t' = Trace.of_string (Trace.to_string t) in
  Alcotest.(check bool) "roundtrip preserves trace" true (t = t')

let test_replay_rebuilds_identically () =
  let t =
    Trace.capture ~seed:172 ~shape:(Workload.Shape.Balanced (3, 40))
      ~mix:Workload.Mix.shrink_heavy ~steps:150 ()
  in
  let final_a = Trace.replay t ~f:(fun tree op -> Workload.apply tree op) in
  let final_b = Trace.replay t ~f:(fun tree op -> Workload.apply tree op) in
  Dtree.check final_a;
  Alcotest.(check int) "deterministic final size" (Dtree.size final_a) (Dtree.size final_b);
  Alcotest.(check (list int)) "identical node sets"
    (List.sort compare (Dtree.live_nodes final_a))
    (List.sort compare (Dtree.live_nodes final_b))

let test_replay_through_controller () =
  (* the canonical regression workflow: capture once, replay against a
     controller, outcome counts are reproducible *)
  let t =
    Trace.capture ~seed:173 ~shape:(Workload.Shape.Random 25)
      ~mix:Workload.Mix.grow_only ~steps:100 ()
  in
  let run () =
    let ctrl_ref = ref None in
    let granted = ref 0 in
    ignore
      (Trace.replay t ~f:(fun tree op ->
           let ctrl =
             match !ctrl_ref with
             | Some c -> c
             | None ->
                 let c = Controller.Adaptive.create ~m:60 ~w:10 ~tree () in
                 ctrl_ref := Some c;
                 c
           in
           match Controller.Adaptive.request ctrl op with
           | Controller.Types.Granted -> incr granted
           | Controller.Types.Rejected | Controller.Types.Exhausted -> ()));
    !granted
  in
  let a = run () and b = run () in
  Alcotest.(check int) "reproducible grant count" a b;
  Alcotest.(check bool) "grants within budget" true (a > 0 && a <= 60)

let test_save_load_file () =
  let t =
    Trace.capture ~seed:174 ~shape:(Workload.Shape.Caterpillar 20)
      ~mix:Workload.Mix.mixed_events ~steps:80 ()
  in
  let path = Filename.temp_file "dynnet" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save t path;
      Alcotest.(check bool) "file round trip" true (Trace.load path = t))

let test_malformed () =
  List.iter
    (fun (s, expected) ->
      match Trace.of_string s with
      | exception Failure msg -> Alcotest.(check string) (Printf.sprintf "%S" s) expected msg
      | _ -> Alcotest.failf "accepted malformed trace %S" s)
    [
      ("", "Trace: truncated");
      ("junk", "Trace: truncated");
      ("dynnet-trace 1\nseed x\nshape path 3\n", {|Trace: line 2: bad seed line: "seed x"|});
      ("dynnet-trace 2\nseed 1\nshape path 3\n", {|Trace: line 1: bad magic: "dynnet-trace 2"|});
      ("dynnet-trace 1\nseed 1\nshape path x\n", {|Trace: line 3: bad shape line: "shape path x"|});
      ( "dynnet-trace 1\nseed 1\nshape path 3\nadd-leaf 0\n\nadd-leaf zz\n",
        {|Trace: line 6: bad op line: "add-leaf zz"|} );
    ]

let suite =
  ( "trace",
    [
      Alcotest.test_case "capture/serialize roundtrip" `Quick test_roundtrip;
      Alcotest.test_case "replay is deterministic" `Quick test_replay_rebuilds_identically;
      Alcotest.test_case "replay through a controller" `Quick test_replay_through_controller;
      Alcotest.test_case "file save/load" `Quick test_save_load_file;
      Alcotest.test_case "malformed inputs rejected" `Quick test_malformed;
    ] )
