(* P2P overlay churn — the paper's motivating scenario (Section 1.1).

   Peers interested in a topic join and leave a tree-shaped overlay in a
   "graceful" manner: every join or leave asks the controller layer for a
   permit first. On top of the same layer, every peer keeps a live
   2-approximation of the overlay size (Theorem 5.1) and a short unique name
   (Theorem 5.2) — the "orderly overlay" the paper describes, usable by an
   application above it.

     dune exec examples/p2p_overlay.exe *)

let () =
  let seed = 42 in
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 24) in

  (* Two protocol instances share the asynchronous network: the size
     estimator drives one, the name assigner the other. For clarity this
     example runs them on separate simulated networks over the same tree. *)
  let net_size = Net.create ~seed:(seed + 1) ~tree () in
  let size_est = Estimator.Size_estimation.create ~beta:2.0 ~net:net_size () in

  let worst = ref 1.0 in
  let done_count = ref 0 in
  Controller.Dist_harness.drive ~concurrency:6 ~net:net_size ~requests:300
    ~submit:(Estimator.Size_estimation.submit size_est)
    ~on_answer:(fun () ->
      incr done_count;
      let n = Dtree.size tree in
      let est = Estimator.Size_estimation.estimate size_est (Dtree.root tree) in
      let ratio =
        let e = float_of_int est and n = float_of_int n in
        if e > n then e /. n else n /. e
      in
      if ratio > !worst then worst := ratio;
      if !done_count mod 50 = 0 then
        Format.printf
          "after %3d churn events: %3d peers, every peer estimates %3d (ratio %.2f)@."
          !done_count n est ratio)
    (Workload.make ~seed:(seed + 2) ~mix:Workload.Mix.churn ());
  Net.run net_size;

  Format.printf
    "@.size estimation: %d churn events, %d epochs, %d messages (+%d overhead), worst ratio %.2f@."
    (Estimator.Size_estimation.changes size_est)
    (Estimator.Size_estimation.epochs size_est)
    (Net.messages net_size)
    (Estimator.Size_estimation.overhead_messages size_est)
    !worst;

  (* Name assignment over the (now churned) overlay. *)
  let net_names = Net.create ~seed:(seed + 3) ~tree () in
  let names = Estimator.Name_assignment.create ~net:net_names () in
  let wl2 = Workload.make ~seed:(seed + 4) ~mix:Workload.Mix.churn () in
  let remaining = ref 150 in
  let rec pump_names () =
    if !remaining > 0 then
      match Workload.next_op_avoiding wl2 tree ~forbidden:(fun _ -> false) with
      | None -> ()
      | Some op ->
          decr remaining;
          Estimator.Name_assignment.submit names op ~k:pump_names
  in
  pump_names ();
  Net.run net_names;

  let n = Dtree.size tree in
  let ids = Estimator.Name_assignment.ids names in
  let max_id = List.fold_left (fun acc (_, i) -> max acc i) 0 ids in
  Format.printf "name assignment: %d peers named within [1, %d], max/n = %.2f <= 4@."
    n max_id
    (float_of_int max_id /. float_of_int n);
  Format.printf "sample names: %a@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (v, i) -> Format.fprintf ppf "peer %d -> %d" v i))
    (List.filteri (fun i _ -> i < 6) ids);
  assert (float_of_int max_id <= 4.0 *. float_of_int n);
  Format.printf "the overlay stayed orderly throughout.@."
