let test_event_queue_order () =
  let q = Event_queue.create ~dummy:"" in
  List.iter (fun (t, v) -> Event_queue.add q ~time:t v)
    [ (5, "e"); (1, "a"); (3, "c"); (1, "b"); (4, "d") ];
  let order = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  (* same-time events keep insertion order *)
  Alcotest.(check (list string)) "time then fifo order" [ "a"; "b"; "c"; "d"; "e" ]
    (List.rev !order);
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_event_queue_bulk () =
  let q = Event_queue.create ~dummy:(-1) in
  let rng = Rng.create ~seed:3 in
  let times = List.init 2000 (fun _ -> Rng.int rng 10_000) in
  List.iter (fun t -> Event_queue.add q ~time:t t) times;
  let rec drain last acc =
    match Event_queue.pop q with
    | Some (t, v) ->
        if t < last then Alcotest.fail "heap order violated";
        Alcotest.(check int) "payload matches time" t v;
        drain t (acc + 1)
    | None -> acc
  in
  Alcotest.(check int) "all drained" 2000 (drain min_int 0)

let test_event_queue_priority_tier () =
  (* same time: lower priority first, insertion order inside a priority *)
  let q = Event_queue.create ~dummy:"" in
  Event_queue.add q ~time:5 "a";
  Event_queue.add_prio q ~time:5 ~priority:(-1) "b";
  Event_queue.add_prio q ~time:5 ~priority:(-2) "c";
  Event_queue.add_prio q ~time:5 ~priority:(-2) "c2";
  Event_queue.add_prio q ~time:4 ~priority:100 "d";
  let order = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "time, then priority, then insertion"
    [ "d"; "c"; "c2"; "b"; "a" ] (List.rev !order)

let test_event_queue_drops_references () =
  (* the heap must not retain popped payloads (the Deliver closures of a
     long-lived network): popped slots are cleared, so the GC can collect *)
  let q = Event_queue.create ~dummy:(ref (-1)) in
  let w = Weak.create 20 in
  for i = 0 to 19 do
    let payload = ref i in
    Weak.set w i (Some payload);
    Event_queue.add q ~time:i payload
  done;
  for _ = 1 to 10 do
    ignore (Event_queue.pop q)
  done;
  Gc.full_major ();
  Gc.full_major ();
  let dead lo hi =
    let n = ref 0 in
    for i = lo to hi do
      if Weak.get w i = None then incr n
    done;
    !n
  in
  (* >= rather than =: the very last popped tuple may transiently survive in
     a register; everything the heap array could leak must be gone *)
  Alcotest.(check bool) "popped payloads collected" true (dead 0 9 >= 9);
  Alcotest.(check int) "queued payloads retained" 0 (dead 10 19);
  for _ = 1 to 10 do
    ignore (Event_queue.pop q)
  done;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "all collected after full drain" true (dead 0 19 >= 19)

let test_delivery_and_counting () =
  let tree = Dtree.create () in
  let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
  let net = Net.create ~seed:1 ~tree () in
  let got = ref [] in
  Net.send_to net ~src:(Dtree.root tree) ~dst:a ~tag:(Net.intern_tag net "x") ~bits:10 (fun dst ->
      got := dst :: !got);
  Net.send_up net ~src:a ~tag:(Net.intern_tag net "y") ~bits:20 (fun dst ->
      got := dst :: !got);
  Net.run net;
  Alcotest.(check (list int)) "both delivered (any order)" [ 0; 1 ]
    (List.sort compare !got);
  Alcotest.(check int) "two messages" 2 (Net.messages net);
  Alcotest.(check int) "max bits" 20 (Net.max_message_bits net);
  Alcotest.(check int) "total bits" 30 (Net.total_bits net);
  Alcotest.(check (list (pair string int))) "tags" [ ("x", 1); ("y", 1) ]
    (Net.messages_by_tag net)

let test_parent_resolution_after_deletion () =
  (* a message to a deleted node is received by its adopting parent *)
  let tree = Dtree.create () in
  let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
  let b = Dtree.add_leaf tree ~parent:a in
  let net = Net.create ~seed:2 ~tree () in
  let got = ref (-1) in
  Net.send_up net ~src:b ~tag:(Net.intern_tag net "up") ~bits:8 (fun dst -> got := dst);
  (* a is deleted while the message is in flight *)
  Dtree.remove_internal tree a;
  Net.node_deleted net a ~parent:(Dtree.root tree);
  Net.run net;
  Alcotest.(check int) "delivered to the new parent" (Dtree.root tree) !got;
  Alcotest.(check int) "resolve follows the chain" 0 (Net.resolve net a)

let test_parent_resolution_after_insertion () =
  (* a message "to my parent" is received by a freshly interposed node *)
  let tree = Dtree.create () in
  let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
  let net = Net.create ~seed:3 ~tree () in
  let got = ref (-1) in
  Net.send_up net ~src:a ~tag:(Net.intern_tag net "up") ~bits:8 (fun dst -> got := dst);
  let fresh = Dtree.add_internal tree ~above:a in
  Net.run net;
  Alcotest.(check int) "delivered to the interposed node" fresh !got

let test_delays_bounded_and_deterministic () =
  (* pinned to Fifo_link: the RNG-delay disciplines are what this test is
     about, so it must not follow a SIMNET_SCHEDULER override *)
  let run () =
    let tree = Dtree.create () in
    let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
    let net = Net.create ~seed:4 ~max_delay:5 ~scheduler:Scheduler.Fifo_link ~tree () in
    let times = ref [] in
    for _ = 1 to 50 do
      Net.send_to net ~src:(Dtree.root tree) ~dst:a ~tag:(Net.intern_tag net "t") ~bits:1 (fun _ ->
          times := Net.now net :: !times)
    done;
    Net.run net;
    !times
  in
  let t1 = run () and t2 = run () in
  Alcotest.(check (list int)) "deterministic given seed" t1 t2;
  List.iter (fun t -> Alcotest.(check bool) "delay within [1,6]" true (t >= 1 && t <= 6)) t1

let test_schedule_not_counted () =
  let tree = Dtree.create () in
  let net = Net.create ~seed:5 ~tree () in
  let fired = ref false in
  Net.schedule net ~delay:3 (fun () -> fired := true);
  Net.run net;
  Alcotest.(check bool) "action ran" true !fired;
  Alcotest.(check int) "not a message" 0 (Net.messages net);
  Alcotest.(check int) "clock advanced" 3 (Net.now net)

(* --- scheduler disciplines ------------------------------------------- *)

let test_scheduler_names_roundtrip () =
  List.iter
    (fun d ->
      match Scheduler.of_string (Scheduler.name d) with
      | Ok d' ->
          Alcotest.(check string) "round-trip" (Scheduler.name d) (Scheduler.name d')
      | Error msg -> Alcotest.fail msg)
    Scheduler.defaults;
  (match Scheduler.of_string "lifo:3" with
  | Ok (Scheduler.Adversarial_lifo { window = 3 }) -> ()
  | _ -> Alcotest.fail "lifo:3 should parse");
  (match Scheduler.of_string "fifo" with
  | Ok Scheduler.Fifo_link -> ()
  | _ -> Alcotest.fail "fifo shorthand should parse");
  match Scheduler.of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk must not parse"

(* Property: under Fifo_link, any two sends with the same (src, resolved dst)
   deliver in send order — 120 seeds, random sends at random times. *)
let test_fifo_per_link_property () =
  for seed = 1 to 120 do
    let tree = Dtree.create () in
    let root = Dtree.root tree in
    let a = Dtree.add_leaf tree ~parent:root in
    let b = Dtree.add_leaf tree ~parent:a in
    let c = Dtree.add_leaf tree ~parent:a in
    let nodes = [| root; a; b; c |] in
    let net = Net.create ~seed ~scheduler:Scheduler.Fifo_link ~tree () in
    let wl = Rng.create ~seed:(seed + 1000) in
    let delivered : (int * int, int list ref) Hashtbl.t = Hashtbl.create 8 in
    let mark = ref 0 in
    let send_one src dst =
      incr mark;
      let m = !mark in
      Net.send_to net ~src ~dst ~tag:(Net.intern_tag net "t") ~bits:1 (fun _ ->
          match Hashtbl.find_opt delivered (src, dst) with
          | Some l -> l := m :: !l
          | None -> Hashtbl.add delivered (src, dst) (ref [ m ]))
    in
    for _ = 1 to 40 do
      let src = Rng.pick_arr wl nodes and dst = Rng.pick_arr wl nodes in
      if src <> dst then begin
        let delay = Rng.int wl 12 in
        if delay = 0 then send_one src dst
        else Net.schedule net ~delay (fun () -> send_one src dst)
      end
    done;
    Net.run net;
    Hashtbl.iter
      (fun (src, dst) l ->
        let order = List.rev !l in
        if order <> List.sort compare order then
          Alcotest.failf "seed %d: link %d->%d delivered out of send order" seed src dst)
      delivered;
    Alcotest.(check int) (Printf.sprintf "seed %d: reorder counter" seed) 0
      (Net.reorders net)
  done

(* FIFO must survive the deletion-forwarding indirection: messages sent to a
   node before it is deleted and messages sent after (resolving to the
   adopter) still arrive in send order — 100 seeds. *)
let test_fifo_across_forwarding () =
  for seed = 1 to 100 do
    let tree = Dtree.create () in
    let root = Dtree.root tree in
    let a = Dtree.add_leaf tree ~parent:root in
    let b = Dtree.add_leaf tree ~parent:a in
    let net = Net.create ~seed ~scheduler:Scheduler.Fifo_link ~tree () in
    let got = ref [] in
    let mark = ref 0 in
    let send_to dst =
      incr mark;
      let m = !mark in
      Net.send_to net ~src:root ~dst ~tag:(Net.intern_tag net "t") ~bits:1 (fun _ ->
          got := m :: !got)
    in
    (* burst towards b, then b dies (adopted by a), then more sends to the
       same logical destination plus direct sends to the adopter *)
    for _ = 1 to 5 do
      send_to b
    done;
    Net.schedule net ~delay:2 (fun () ->
        Dtree.remove_leaf tree b;
        Net.node_deleted net b ~parent:a;
        for _ = 1 to 5 do
          send_to b
        done);
    Net.run net;
    let order = List.rev !got in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: send order preserved across adoption" seed)
      (List.init 10 (fun i -> i + 1))
      order;
    Alcotest.(check int) "no reorders" 0 (Net.reorders net)
  done

(* Regression pinning the historical behaviour: Random_delay is intentionally
   NOT FIFO per link — independent delays let later sends overtake. *)
let test_random_delay_reorders () =
  let tree = Dtree.create () in
  let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
  let net = Net.create ~seed:4242 ~scheduler:Scheduler.Random_delay ~max_delay:8 ~tree () in
  let got = ref [] in
  for i = 1 to 30 do
    Net.send_to net ~src:(Dtree.root tree) ~dst:a ~tag:(Net.intern_tag net "t") ~bits:1 (fun _ ->
        got := i :: !got)
  done;
  Net.run net;
  let order = List.rev !got in
  Alcotest.(check bool) "delivered out of send order" true
    (order <> List.sort compare order);
  Alcotest.(check bool) "reorder counter nonzero" true (Net.reorders net > 0);
  match Net.reorders_by_link net with
  | [ (Scheduler.Direct (s, d), n) ] ->
      Alcotest.(check (pair int int)) "on the one link" (Dtree.root tree, a) (s, d);
      Alcotest.(check int) "per-link count = total" (Net.reorders net) n
  | _ -> Alcotest.fail "expected exactly one reordering link"

let test_adversarial_lifo_newest_first () =
  let tree = Dtree.create () in
  let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
  let net =
    Net.create ~seed:5 ~scheduler:(Scheduler.Adversarial_lifo { window = 10 }) ~tree ()
  in
  let got = ref [] in
  for i = 1 to 5 do
    Net.send_to net ~src:(Dtree.root tree) ~dst:a ~tag:(Net.intern_tag net "t") ~bits:1 (fun _ ->
        got := (i, Net.now net) :: !got)
  done;
  Net.run net;
  Alcotest.(check (list (pair int int))) "window flush, newest first"
    [ (5, 10); (4, 10); (3, 10); (2, 10); (1, 10) ]
    (List.rev !got);
  Alcotest.(check int) "every overtaken message counted" 4 (Net.reorders net)

let test_bursty_batches () =
  let tree = Dtree.create () in
  let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
  let net = Net.create ~seed:6 ~scheduler:(Scheduler.Bursty { period = 10 }) ~tree () in
  let got = ref [] in
  let send i =
    Net.send_to net ~src:(Dtree.root tree) ~dst:a ~tag:(Net.intern_tag net "t") ~bits:1 (fun _ ->
        got := (i, Net.now net) :: !got)
  in
  send 1;
  send 2;
  Net.schedule net ~delay:3 (fun () -> send 3);
  Net.schedule net ~delay:13 (fun () -> send 4);
  Net.run net;
  Alcotest.(check (list (pair int int))) "flush boundaries, FIFO within each"
    [ (1, 10); (2, 10); (3, 10); (4, 20) ]
    (List.rev !got);
  Alcotest.(check int) "bursty is order preserving" 0 (Net.reorders net)

let test_resolve_path_compression () =
  let tree = Dtree.create () in
  let net = Net.create ~seed:7 ~tree () in
  (* a 1000-deep synthetic forwarding chain: i adopted by i+1 *)
  for i = 1 to 1000 do
    Net.node_deleted net i ~parent:(i + 1)
  done;
  Alcotest.(check int) "resolves to the final adopter" 1001 (Net.resolve net 1);
  Alcotest.(check int) "head compressed to one hop" 1 (Net.forward_hops net 1);
  Alcotest.(check int) "mid-chain compressed too" 1 (Net.forward_hops net 500);
  Alcotest.(check int) "live nodes have no hops" 0 (Net.forward_hops net 1001)

let test_resolve_far_ids () =
  (* ids far past the forwarding column's end: deleting one grows the
     column to take it, and ids past the end stay unforwarded *)
  let tree = Dtree.create () in
  let net = Net.create ~seed:8 ~tree () in
  let far = 100_000 in
  Alcotest.(check int) "an id past the end resolves to itself" far (Net.resolve net far);
  Net.node_deleted net 3 ~parent:far;
  Net.node_deleted net far ~parent:(far + 1);
  Net.node_deleted net (3 * far) ~parent:3;
  Alcotest.(check int) "three hops before compression" 3 (Net.forward_hops net (3 * far));
  Alcotest.(check int) "resolves to the final adopter" (far + 1) (Net.resolve net (3 * far));
  Alcotest.(check int) "far head compressed to one hop" 1 (Net.forward_hops net (3 * far));
  Alcotest.(check int) "low id compressed too" 1 (Net.forward_hops net 3);
  Alcotest.(check int) "the adopter has no hops" 0 (Net.forward_hops net (far + 1));
  Alcotest.(check int) "past the grown end: no hops" 0 (Net.forward_hops net (10 * far));
  Alcotest.(check int) "past the grown end: itself" (10 * far) (Net.resolve net (10 * far))

(* The open-addressed link-id table against a Hashtbl model. Random interns
   and node deletions until at least 20,000 distinct links exist, so the
   table doubles many times: every intern must return the model's id
   (first-send order), and a deletion must intern what the model predicts
   the FIFO fold interns — for each link aimed at the deleted node that has
   FIFO state, in ascending id order, the same link aimed at its adopter. *)
let prop_link_ids_match_model =
  Helpers.qcheck ~count:4 "link ids match a Hashtbl model"
    QCheck2.Gen.(int_range 0 99999)
    (fun seed ->
      let nodes = 4096 in
      let rng = Rng.create ~seed in
      let s = Scheduler.create Scheduler.Fifo_link in
      let ids : (Scheduler.link, int) Hashtbl.t = Hashtbl.create 1024 in
      let links : (int, Scheduler.link) Hashtbl.t = Hashtbl.create 1024 in
      let has_fifo_state : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
      let model_intern l =
        match Hashtbl.find_opt ids l with
        | Some id -> id
        | None ->
            let id = Hashtbl.length ids in
            Hashtbl.add ids l id;
            Hashtbl.add links id l;
            id
      in
      let live = Array.make nodes true and live_n = ref nodes in
      let fwd = Array.make nodes (-1) in
      let rec resolve v = if fwd.(v) < 0 then v else resolve fwd.(v) in
      let rec pick_live () =
        let v = Rng.int rng nodes in
        if live.(v) then v else pick_live ()
      in
      let dst = function Scheduler.Direct (_, d) -> d | Scheduler.Up v -> v in
      let expect what l got =
        let want = model_intern l in
        if got <> want then
          QCheck2.Test.fail_reportf "%s %s: id %d, model %d" what
            (Scheduler.link_to_string l) got want
      in
      let now = ref 0 in
      while Hashtbl.length ids < 20_000 do
        incr now;
        if Rng.int rng 64 = 0 && !live_n > nodes / 2 then begin
          let v = pick_live () in
          live.(v) <- false;
          decr live_n;
          fwd.(v) <- pick_live ();
          let aimed =
            Hashtbl.fold (fun id l acc -> if dst l = v then id :: acc else acc) links []
          in
          let folded =
            List.filter_map
              (fun id ->
                if Hashtbl.mem has_fifo_state id then begin
                  Hashtbl.remove has_fifo_state id;
                  let l' =
                    match Hashtbl.find links id with
                    | Scheduler.Direct (src, _) -> Scheduler.Direct (src, resolve v)
                    | Scheduler.Up _ -> Scheduler.Up (resolve v)
                  in
                  Some (model_intern l')
                end
                else None)
              (List.sort Int.compare aimed)
          in
          List.iter (fun id -> Hashtbl.replace has_fifo_state id ()) folded;
          Scheduler.on_node_deleted s ~deleted:v ~resolve
        end
        else begin
          let l, id =
            if Rng.bool rng then
              let src = pick_live () and d = pick_live () in
              (Scheduler.Direct (src, d), Scheduler.intern_direct s ~src ~dst:d)
            else
              let v = pick_live () in
              (Scheduler.Up v, Scheduler.intern_up s v)
          in
          expect "intern" l id;
          ignore (Scheduler.decide s ~rng ~max_delay:8 ~now:!now ~link:id);
          Hashtbl.replace has_fifo_state id ()
        end;
        if Scheduler.link_count s <> Hashtbl.length ids then
          QCheck2.Test.fail_reportf "link_count %d, model %d" (Scheduler.link_count s)
            (Hashtbl.length ids)
      done;
      Hashtbl.iter
        (fun id l ->
          if Scheduler.link_of_id s id <> l then
            QCheck2.Test.fail_reportf "link_of_id %d: %s, model %s" id
              (Scheduler.link_to_string (Scheduler.link_of_id s id))
              (Scheduler.link_to_string l);
          let again =
            match l with
            | Scheduler.Direct (src, d) -> Scheduler.intern_direct s ~src ~dst:d
            | Scheduler.Up v -> Scheduler.intern_up s v
          in
          expect "re-intern" l again)
        links;
      Scheduler.link_count s = Hashtbl.length ids)

let suite =
  ( "simnet",
    [
      Alcotest.test_case "event queue ordering" `Quick test_event_queue_order;
      Alcotest.test_case "event queue bulk" `Quick test_event_queue_bulk;
      Alcotest.test_case "delivery and counting" `Quick test_delivery_and_counting;
      Alcotest.test_case "deletion forwarding" `Quick test_parent_resolution_after_deletion;
      Alcotest.test_case "insertion interposition" `Quick test_parent_resolution_after_insertion;
      Alcotest.test_case "delays bounded and deterministic" `Quick
        test_delays_bounded_and_deterministic;
      Alcotest.test_case "local actions uncounted" `Quick test_schedule_not_counted;
      Alcotest.test_case "event queue priority tier" `Quick test_event_queue_priority_tier;
      Alcotest.test_case "event queue drops references" `Quick
        test_event_queue_drops_references;
      Alcotest.test_case "scheduler names round-trip" `Quick test_scheduler_names_roundtrip;
      Alcotest.test_case "fifo per-link property" `Quick test_fifo_per_link_property;
      Alcotest.test_case "fifo across forwarding" `Quick test_fifo_across_forwarding;
      Alcotest.test_case "random delay reorders" `Quick test_random_delay_reorders;
      Alcotest.test_case "adversarial lifo newest first" `Quick
        test_adversarial_lifo_newest_first;
      Alcotest.test_case "bursty batches" `Quick test_bursty_batches;
      Alcotest.test_case "resolve path compression" `Quick test_resolve_path_compression;
      Alcotest.test_case "resolve far ids" `Quick test_resolve_far_ids;
      prop_link_ids_match_model;
    ] )
