module Mc = Estimator.Majority_commit

let drive ~seed ~n0 ~m ~yes_prob =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
  let vote_rng = Rng.create ~seed:(seed + 1) in
  let mc = Mc.create ~m ~tree ~initial_votes:(fun _ -> Rng.float vote_rng < yes_prob) () in
  let wl_rng = Rng.create ~seed:(seed + 2) in
  let early_decision = ref None in
  let continue = ref true in
  while !continue do
    (match (Mc.decision mc, !early_decision) with
    | Some d, None -> early_decision := Some (d, Mc.joins mc)
    | _ -> ());
    let parent = Rng.pick wl_rng (Dtree.live_nodes tree) in
    if not (Mc.submit_join mc ~parent ~vote:(Rng.float vote_rng < yes_prob)) then
      continue := false
  done;
  (mc, tree, !early_decision)

let test_decides_and_agrees () =
  List.iter
    (fun (seed, yes_prob) ->
      let mc, _, _ = drive ~seed ~n0:20 ~m:100 ~yes_prob in
      match Mc.decision mc with
      | None -> Alcotest.fail "no decision after budget exhausted"
      | Some d ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d p=%.2f decision matches ground truth" seed yes_prob)
            true
            (d = Mc.ground_truth mc))
    [ (121, 0.9); (122, 0.1); (123, 0.5); (124, 0.55); (125, 0.45) ]

let test_early_commit_when_landslide () =
  (* With unanimous yes votes, the root can commit long before the budget is
     spent. *)
  let mc, _, early = drive ~seed:126 ~n0:30 ~m:400 ~yes_prob:1.0 in
  Alcotest.(check bool) "committed" true (Mc.decision mc = Some Mc.Commit);
  match early with
  | Some (Mc.Commit, joins_at) ->
      Alcotest.(check bool)
        (Printf.sprintf "decided after %d of 400 joins" joins_at)
        true
        (joins_at < 400)
  | _ -> Alcotest.fail "expected an early commit"

let test_early_decision_is_final_and_correct () =
  List.iter
    (fun seed ->
      let mc, _, early = drive ~seed ~n0:15 ~m:150 ~yes_prob:0.8 in
      match early with
      | None -> ()  (* decided only at the end: fine *)
      | Some (d, _) ->
          Alcotest.(check bool) "early decision never reverted" true
            (Mc.decision mc = Some d);
          Alcotest.(check bool) "early decision correct" true (d = Mc.ground_truth mc))
    [ 131; 132; 133; 134 ]

let prop_always_correct =
  Helpers.qcheck ~count:10 "decision always matches final majority"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 100))
    (fun (seed, pct) ->
      let mc, _, _ = drive ~seed ~n0:12 ~m:80 ~yes_prob:(float_of_int pct /. 100.0) in
      match Mc.decision mc with
      | None -> false
      | Some d -> d = Mc.ground_truth mc)

(* --- distributed variant ---------------------------------------------- *)

module Md = Estimator.Majority_commit_dist

let drive_dist ~seed ~n0 ~m ~yes_prob =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
  let net = Net.create ~seed:(seed + 1) ~tree () in
  let vote_rng = Rng.create ~seed:(seed + 2) in
  let mc = Md.create ~m ~net ~initial_votes:(fun _ -> Rng.float vote_rng < yes_prob) () in
  let pick = Rng.create ~seed:(seed + 3) in
  let early = ref None in
  let refused = ref false in
  let rec pump () =
    (match (Md.decision mc, !early) with
    | Some d, None -> early := Some (d, Md.joins mc)
    | _ -> ());
    if not !refused then begin
      let parent = Rng.pick pick (Dtree.live_nodes tree) in
      Md.submit_join mc ~parent ~vote:(Rng.float vote_rng < yes_prob) ~k:(fun admitted ->
          if not admitted then refused := true;
          pump ())
    end
  in
  pump ();
  Net.run net;
  (mc, net, !early)

let test_dist_decides_correctly () =
  List.iter
    (fun (seed, yes_prob) ->
      let mc, _, _ = drive_dist ~seed ~n0:20 ~m:120 ~yes_prob in
      Alcotest.(check int) "budget fully used" 120 (Md.joins mc);
      match Md.decision mc with
      | None -> Alcotest.fail "no decision after the budget was spent"
      | Some d ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d p=%.2f distributed decision correct" seed yes_prob)
            true
            (d = Md.ground_truth mc))
    [ (221, 0.9); (222, 0.15); (223, 0.5); (224, 0.6) ]

let test_dist_early_commit () =
  let mc, net, early = drive_dist ~seed:225 ~n0:24 ~m:400 ~yes_prob:1.0 in
  Alcotest.(check bool) "committed" true (Md.decision mc = Some Md.Commit);
  (match early with
  | Some (Md.Commit, at) ->
      Alcotest.(check bool) (Printf.sprintf "early at %d < 400 joins" at) true (at < 400)
  | _ -> Alcotest.fail "expected an early commit");
  Alcotest.(check bool) "messages flowed" true (Net.messages net > 0)

(* Four joins in flight at a time. When the last admitted join spends the
   budget, the others still come back [Exhausted]: each rotates the retired
   engine once more, charging its boundary, and is then refused. The counts
   are those of the recorded run. *)
let test_dist_concurrent_joins () =
  let tree = Workload.Shape.build (Rng.create ~seed:4) (Workload.Shape.Random 21) in
  let net = Net.create ~seed:5 ~scheduler:Scheduler.Fifo_link ~tree () in
  let votes = Rng.create ~seed:6 in
  let mc = Md.create ~m:60 ~net ~initial_votes:(fun _ -> Rng.float votes < 0.5) () in
  let pick = Rng.create ~seed:7 in
  let refused = ref 0 and epochs_when_spent = ref 0 in
  let rec pump () =
    if !refused < 3 then
      Md.submit_join mc ~parent:(Rng.pick pick (Dtree.live_nodes tree))
        ~vote:(Rng.float votes < 0.5) ~k:(fun admitted ->
          if not admitted then incr refused
          else if Md.joins mc = 60 then epochs_when_spent := Md.epochs mc;
          pump ())
  in
  for _ = 1 to 4 do
    pump ()
  done;
  Net.run net;
  Alcotest.(check (list int))
    "messages, overhead, epochs, joins" [ 586; 1_269; 6; 60 ]
    [ Net.messages net; Md.overhead_messages mc; Md.epochs mc; Md.joins mc ];
  Alcotest.(check int) "three rotations after the budget was spent" 3
    (Md.epochs mc - !epochs_when_spent);
  Alcotest.(check bool) "decision correct" true (Md.decision mc = Some (Md.ground_truth mc))

let prop_dist_correct =
  Helpers.qcheck ~count:6 "distributed decision always matches final majority"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 100))
    (fun (seed, pct) ->
      let mc, _, early = drive_dist ~seed ~n0:12 ~m:60 ~yes_prob:(float_of_int pct /. 100.0) in
      (match early with
      | Some (d, _) -> d = Option.get (Md.decision mc)
      | None -> true)
      && Md.decision mc = Some (Md.ground_truth mc))

let suite =
  ( "majority-commit",
    [
      Alcotest.test_case "decides and agrees with ground truth" `Quick test_decides_and_agrees;
      Alcotest.test_case "landslide commits early" `Quick test_early_commit_when_landslide;
      Alcotest.test_case "early decisions final and correct" `Quick
        test_early_decision_is_final_and_correct;
      prop_always_correct;
      Alcotest.test_case "distributed: decides correctly" `Quick test_dist_decides_correctly;
      Alcotest.test_case "distributed: landslide commits early" `Quick test_dist_early_commit;
      Alcotest.test_case "distributed: concurrent joins" `Quick test_dist_concurrent_joins;
      prop_dist_correct;
    ] )
