(* Scale checks: the implementation must stay fast at sizes well above the
   benchmark sweeps (single-digit seconds on one core). *)

open Controller

let test_central_large_path () =
  let rng = Rng.create ~seed:201 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 8_000) in
  let params = Params.make ~m:100_000 ~w:8_000 ~u:16_000 in
  let c = Central.create ~params ~tree () in
  let wl = Workload.make ~seed:202 ~deep_bias:true ~mix:Workload.Mix.churn () in
  for _ = 1 to 800 do
    ignore (Central.request c (Workload.next_op wl tree))
  done;
  Alcotest.(check int) "all served" 800 (Central.granted c);
  Alcotest.(check bool) "moves accounted" true (Central.moves c > 0)

let test_dist_large_random () =
  let stats =
    Dist_harness.run ~seed:203 ~concurrency:16 ~shape:(Workload.Shape.Random 1_500)
      ~mix:Workload.Mix.churn ~m:3_000 ~w:300 ~requests:1_500 ()
  in
  Alcotest.(check int) "all answered" 1_500
    (stats.Dist_harness.granted + stats.Dist_harness.rejected);
  Alcotest.(check int) "all granted" 1_500 stats.Dist_harness.granted

let test_size_estimation_large () =
  let rng = Rng.create ~seed:204 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 1_500) in
  let net = Net.create ~seed:205 ~tree () in
  let se = Estimator.Size_estimation.create ~beta:2.0 ~net () in
  Dist_harness.drive ~concurrency:8 ~net ~requests:1_500
    ~submit:(Estimator.Size_estimation.submit se) ~on_answer:ignore
    (Workload.make ~seed:206 ~mix:Workload.Mix.churn ());
  Net.run net;
  Alcotest.(check int) "all changes applied" 1_500 (Estimator.Size_estimation.changes se);
  let n = Dtree.size tree in
  let est = Estimator.Size_estimation.estimate se (Dtree.root tree) in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %d within beta of %d" est n)
    true
    (float_of_int est <= 2.0 *. float_of_int n
    && float_of_int n <= 2.0 *. float_of_int est)

let suite =
  ( "scale",
    [
      Alcotest.test_case "centralized on an 8k path" `Slow test_central_large_path;
      Alcotest.test_case "distributed on 3k nodes" `Slow test_dist_large_random;
      Alcotest.test_case "size estimation over 1.5k changes" `Slow test_size_estimation_large;
    ] )
