(* Runtime corroboration of the D11 static proofs: every
   [@@dynlint.zero_alloc]-annotated hot path must put exactly zero words
   on the minor heap in steady state. The probe is calibrated — the
   measured delta of each operation loop must equal the delta of an empty
   thunk, so any boxing done by [Gc.minor_words] itself cancels out.
   Warm-up laps run first so amortized growth (arena doubling, heap
   doubling, pool minting, link interning) happens outside the window.

   A second section pins the Rng's 32-bit-halves SplitMix64 against a
   direct Int64 reference: the rewrite that made [next] allocation-free
   must not have moved a single draw, or every seeded baseline in
   BENCH_BASELINE.json silently shifts. *)

let delta f =
  let before = Gc.minor_words () in
  f ();
  let after = Gc.minor_words () in
  after -. before

let check_zero name f =
  let baseline = delta (fun () -> ()) in
  Alcotest.(check (float 0.0)) name baseline (delta f)

let laps = 10_000

let test_rng () =
  let r = Rng.create ~seed:42 in
  let arr = [| 1; 2; 3; 4; 5 |] in
  (* warm-up: fault in any lazily-initialized runtime state *)
  for _ = 1 to 100 do
    ignore (Rng.next r)
  done;
  check_zero "Rng.next" (fun () ->
      for _ = 1 to laps do
        ignore (Rng.next r)
      done);
  check_zero "Rng.int" (fun () ->
      for _ = 1 to laps do
        ignore (Rng.int r 1000)
      done);
  check_zero "Rng.int_in" (fun () ->
      for _ = 1 to laps do
        ignore (Rng.int_in r 10 20)
      done);
  check_zero "Rng.bool" (fun () ->
      for _ = 1 to laps do
        ignore (Rng.bool r)
      done);
  check_zero "Rng.pick_arr" (fun () ->
      for _ = 1 to laps do
        ignore (Rng.pick_arr r arr)
      done)

let test_dtree () =
  let t = Dtree.create () in
  let root = Dtree.root t in
  (* a chain of internal nodes with one leaf at the bottom, so hops have
     depth to climb *)
  let deep = ref root in
  for _ = 1 to 64 do
    deep := Dtree.add_leaf t ~parent:!deep
  done;
  let leaf = Dtree.add_leaf t ~parent:!deep in
  check_zero "Dtree hop climb" (fun () ->
      for _ = 1 to laps do
        let v = ref leaf in
        while Dtree.parent_id t !v >= 0 do
          v := Dtree.parent_id t !v
        done
      done);
  check_zero "Dtree reads" (fun () ->
      for _ = 1 to laps do
        ignore (Dtree.is_leaf t leaf);
        ignore (Dtree.child_degree t root);
        ignore (Dtree.depth t leaf);
        ignore (Dtree.is_ancestor t ~anc:root ~desc:leaf);
        ignore (Dtree.size t);
        ignore (Dtree.reshape_count t);
        ignore (Dtree.port_to_parent t leaf)
      done);
  check_zero "Dtree subtree fold" (fun () ->
      for _ = 1 to 100 do
        ignore (Dtree.fold_dfs t ~init:0 ~f:(fun n _ -> n + 1));
        ignore (Dtree.fold_dfs_depth t ~init:0 ~f:(fun n _ d -> n + d));
        ignore (Dtree.subtree_size t !deep);
        ignore (Dtree.any_leaf t)
      done);
  (* Ids are never reused, so every lap of the batch takes a fresh slot.
     Churn until [ever_created] passes 2^14: the arena has just doubled to
     2^15 slots and holds 2^14 - 1 free ones, more than the batch takes, so
     no growth falls inside the window. *)
  while Dtree.ever_created t <= 1 lsl 14 do
    let v = Dtree.add_leaf t ~parent:!deep in
    Dtree.remove_leaf t v
  done;
  check_zero "Dtree mutation batch" (fun () ->
      for _ = 1 to laps do
        let v = Dtree.add_leaf t ~parent:!deep in
        Dtree.remove_leaf t v
      done)

(* The climb: a request on an exhausted report-mode controller climbs from
   a deep leaf to the root through six distance bands (W = U makes psi
   small), tests each hop's store for a filler, and answers [Exhausted]
   without changing any state. The level lookup is closed-form, so it
   allocates nothing at any distance. *)
let test_central_climb () =
  let tree = Dtree.create () in
  let leaf = ref (Dtree.root tree) in
  for _ = 1 to 3000 do
    leaf := Dtree.add_leaf tree ~parent:!leaf
  done;
  let params = Controller.Params.make ~m:0 ~w:4000 ~u:4000 in
  let c = Controller.Central.create ~reject_mode:Controller.Types.Report ~params ~tree () in
  let op = Workload.Non_topological !leaf in
  (* warm-up: the first request installs the requester's store *)
  ignore (Controller.Central.request c op);
  check_zero "Central exhausted climb" (fun () ->
      for _ = 1 to 100 do
        ignore (Controller.Central.request c op)
      done);
  let psi = params.Controller.Params.psi in
  check_zero "Params.filler_level_index past 2 psi" (fun () ->
      for d = 1 to laps do
        ignore (Controller.Params.filler_level_index params ((2 * psi) + d))
      done)

let test_event_queue () =
  let q = Event_queue.create ~dummy:(-1) in
  (* warm the heap arrays past the working set *)
  for i = 1 to 256 do
    Event_queue.add q ~time:i i
  done;
  while not (Event_queue.is_empty q) do
    ignore (Event_queue.pop_exn q)
  done;
  check_zero "Event_queue add_prio/pop_exn cycle" (fun () ->
      for i = 1 to laps do
        Event_queue.add_prio q ~time:i ~priority:(i land 7) i;
        Event_queue.add_prio q ~time:(i + 3) ~priority:0 (i + 1);
        ignore (Event_queue.next_time q);
        ignore (Event_queue.pop_exn q);
        ignore (Event_queue.pop_exn q)
      done);
  check_zero "Event_queue omitted-optional add" (fun () ->
      for i = 1 to laps do
        Event_queue.add q ~time:i i;
        ignore (Event_queue.pop_exn q)
      done)

let test_net_round_trip () =
  let tree = Dtree.create () in
  let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
  let b = Dtree.add_leaf tree ~parent:a in
  let net = Net.create ~seed:7 ~tree () in
  let tag = Net.intern_tag net "za-probe" in
  (* warm-up mints the pooled cells, grows the link tables and interns
     the links under whichever scheduler discipline is active *)
  for _ = 1 to 256 do
    Net.send_to net ~src:a ~dst:b ~tag ~bits:8 ignore;
    Net.send_up net ~src:b ~tag ~bits:8 ignore;
    Net.run net
  done;
  check_zero "Net send_to/run round trip" (fun () ->
      for _ = 1 to laps do
        Net.send_to net ~src:a ~dst:b ~tag ~bits:8 ignore;
        Net.run net
      done);
  check_zero "Net send_up/run round trip" (fun () ->
      for _ = 1 to laps do
        Net.send_up net ~src:b ~tag ~bits:8 ignore;
        Net.run net
      done)

(* Forwarded delivery: [c] is deleted after the warm-up and adopted by
   [a]. Sends still address [c]; resolving it reads the forwarding column,
   and the adopter's link was interned during the warm-up, so each round
   trip allocates nothing and lands at [a]. *)
let test_net_forwarded_round_trip () =
  let tree = Dtree.create () in
  let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
  let b = Dtree.add_leaf tree ~parent:a in
  let c = Dtree.add_leaf tree ~parent:a in
  let net = Net.create ~seed:9 ~tree () in
  let tag = Net.intern_tag net "za-forward" in
  let got = ref (-1) in
  let k v = got := v in
  for _ = 1 to 256 do
    Net.send_to net ~src:b ~dst:c ~tag ~bits:8 k;
    Net.send_to net ~src:b ~dst:a ~tag ~bits:8 k;
    Net.run net
  done;
  Dtree.remove_leaf tree c;
  Net.node_deleted net c ~parent:a;
  got := -1;
  check_zero "Net forwarded send_to/run round trip" (fun () ->
      for _ = 1 to laps do
        Net.send_to net ~src:b ~dst:c ~tag ~bits:8 k;
        Net.run net
      done);
  Alcotest.(check int) "delivered to the adopter" a !got;
  Alcotest.(check int) "forwarded in one hop" 1 (Net.forward_hops net c)

(* ---------------------------------------------------------------- *)
(* Stream identity: the 32-bit-halves implementation vs Int64 SplitMix64. *)

let ref_step st =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let test_splitmix_reference () =
  List.iter
    (fun seed ->
      let r = Rng.create ~seed in
      let st = ref (Int64.of_int seed) in
      for i = 1 to 1000 do
        let expect = ref_step st in
        Alcotest.(check int64)
          (Printf.sprintf "seed %d draw %d (int64)" seed i)
          expect (Rng.int64 r)
      done;
      (* [next] is the same stream's 64-bit output shifted right by two *)
      let r' = Rng.create ~seed in
      let st' = ref (Int64.of_int seed) in
      for i = 1 to 1000 do
        let expect = Int64.to_int (Int64.shift_right_logical (ref_step st') 2) in
        Alcotest.(check int)
          (Printf.sprintf "seed %d draw %d (next)" seed i)
          expect (Rng.next r')
      done)
    [ 0; 1; 42; 123456789; -1; -987654321; max_int ]

let suite =
  ( "zero-alloc",
    [
      Alcotest.test_case "rng draws" `Quick test_rng;
      Alcotest.test_case "dtree traversal and mutation" `Quick test_dtree;
      Alcotest.test_case "central climb and level lookup" `Quick test_central_climb;
      Alcotest.test_case "event queue cycle" `Quick test_event_queue;
      Alcotest.test_case "net round trip (no sink)" `Quick test_net_round_trip;
      Alcotest.test_case "net forwarded round trip (no sink)" `Quick
        test_net_forwarded_round_trip;
      Alcotest.test_case "splitmix64 reference stream" `Quick
        test_splitmix_reference;
    ] )
