(* Differential replay of the message-bound experiments against the
   counters recorded before the interned-tag / pooled-cell rewrite of the
   send path. The deterministic tallies (messages, moves, bits, rows) are a
   pure function of the seeds baked into each experiment, so replacing the
   string-keyed tally tables, link Hashtbls and per-hop closures must not
   move any of them by a single unit — any drift here means the zero-alloc
   path changed behaviour, not just cost. The Section 5 rows (e6, e7, e9,
   e11) pin the epoch protocols the same way, so moving their rotation
   loops between modules cannot drift a count either. Pinned to Fifo_link: the recorded
   values were taken under the default discipline, and this test must not
   follow a SIMNET_SCHEDULER override. *)

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let replay name =
  match List.assoc_opt name Experiments.all with
  | None -> Alcotest.failf "experiment %s not registered" name
  | Some f ->
      let ctx =
        Experiments.make_ctx ~scheduler:Scheduler.Fifo_link ~jobs:1
          ~ppf:null_ppf ()
      in
      f ctx;
      ctx.Experiments.tally

let check_tally name ~messages ~moves ~bits ~rows () =
  let t = replay name in
  Alcotest.(check int)
    (name ^ ": messages")
    messages t.Experiments.Results.messages;
  Alcotest.(check int) (name ^ ": moves") moves t.Experiments.Results.moves;
  Alcotest.(check int) (name ^ ": bits") bits t.Experiments.Results.bits;
  Alcotest.(check int) (name ^ ": rows") rows t.Experiments.Results.rows

(* The recorded values: bench --json output of the pre-rewrite tree, same
   seeds, fifo_link, -j 1; the Section 5 rows are BENCH_BASELINE.json's. *)
let suite =
  ( "differential",
    [
      Alcotest.test_case "e5 counters match the recorded seed run" `Quick
        (check_tally "e5" ~messages:49_716 ~moves:0 ~bits:1_899_583 ~rows:5);
      Alcotest.test_case "e6 counters match the recorded seed run" `Quick
        (check_tally "e6" ~messages:134_028 ~moves:0 ~bits:4_211_496 ~rows:7);
      Alcotest.test_case "e7 counters match the recorded seed run" `Quick
        (check_tally "e7" ~messages:127_381 ~moves:0 ~bits:3_468_426 ~rows:5);
      Alcotest.test_case "e8 counters match the recorded seed run" `Quick
        (check_tally "e8" ~messages:438_358 ~moves:0 ~bits:0 ~rows:6);
      Alcotest.test_case "e9 counters match the recorded seed run" `Quick
        (check_tally "e9" ~messages:102_300 ~moves:0 ~bits:130 ~rows:5);
      Alcotest.test_case "e10 counters match the recorded seed run" `Quick
        (check_tally "e10" ~messages:175_612 ~moves:0 ~bits:200 ~rows:4);
      Alcotest.test_case "e11 counters match the recorded seed run" `Quick
        (check_tally "e11" ~messages:56_451 ~moves:0 ~bits:408 ~rows:6);
    ] )
