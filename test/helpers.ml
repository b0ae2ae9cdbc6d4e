(* Shared plumbing for the test suites. *)

let shapes_small =
  Workload.Shape.
    [ Path 40; Star 40; Random 40; Balanced (3, 40); Caterpillar 40 ]

let shapes_medium =
  Workload.Shape.
    [ Path 200; Star 200; Random 200; Balanced (2, 200); Caterpillar 200 ]

(* Drive [steps] workload requests against a controller represented as a
   request closure. The controller owns the tree mutations; [check] runs
   after every step. *)
let drive ?(check = fun () -> ()) ~seed ~shape ~mix ~steps request =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng shape in
  let w = Workload.make ~seed:(seed + 1) ~mix () in
  let outcomes = ref [] in
  for _ = 1 to steps do
    let op = Workload.next_op w tree in
    let outcome = request tree op in
    outcomes := outcome :: !outcomes;
    check ()
  done;
  (tree, List.rev !outcomes)

let count p l = List.length (List.filter p l)

(* qcheck case wrapper with our defaults. *)
let qcheck ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A centralized controller observed by a Section 3.2 domain tracker. *)
let central_with_domains ~params ~tree =
  let tracker = Controller.Domain_tracker.create ~params ~tree () in
  let hooks = Controller.Domain_tracker.hooks tracker in
  (Controller.Central.create ~hooks ~params ~tree (), tracker)

let expect_domains tracker =
  match Controller.Domain_tracker.check tracker with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "domain invariant violated: %s" msg

let outcome = Alcotest.testable Controller.Types.pp_outcome Controller.Types.equal_outcome
