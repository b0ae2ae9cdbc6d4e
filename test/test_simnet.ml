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
  Alcotest.(check bool) "reorder counter nonzero" true (Net.reorders net > 0)

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

(* Link retirement against a reference that never retires a link: per
   link, its FIFO bound, messages in flight and highest send delivered, in
   a Hashtbl keyed by the link itself, with a twin [Rng]. Random sends,
   earliest-first deliveries (which advance the clock only sometimes, so a
   link can be idle with its FIFO bound still ahead) and node deletions over
   40 nodes. A third of the sends reuse the link of the latest delivery, so
   links die and come back many times: every [decide] time and every
   [delivered] flag must match the reference, and the scheduler may hold at
   most max 64 (2 × peak) ids, peak being the most links the reference has
   live at once. *)
type ref_link = Direct of int * int | Up of int
type ref_state = { mutable last : int; mutable flight : int; mutable dmax : int }

let prop_retirement_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30 ~name:"link retirement vs reference"
       ~print:(fun (seed, fifo) ->
         Printf.sprintf "seed %d, %s" seed (if fifo then "fifo_link" else "random_delay"))
       QCheck2.Gen.(pair (int_range 0 99999) bool)
       (fun (seed, fifo) ->
         let nodes = 40 in
         let rng = Rng.create ~seed in
         let s =
           Scheduler.create (if fifo then Scheduler.Fifo_link else Scheduler.Random_delay)
         in
         let s_rng = Rng.create ~seed:(seed + 1) and r_rng = Rng.create ~seed:(seed + 1) in
         let links : (ref_link, ref_state) Hashtbl.t = Hashtbl.create 256 in
         (* the links the reference may have live: every live one, and those
            that died since the last step *)
         let active : (ref_link, ref_state) Hashtbl.t = Hashtbl.create 64 in
         let state l =
           match Hashtbl.find_opt links l with
           | Some st -> st
           | None ->
               let st = { last = 0; flight = 0; dmax = -1 } in
               Hashtbl.add links l st;
               st
         in
         let alive = Array.make nodes true and alive_n = ref nodes in
         let fwd = Array.make nodes (-1) in
         let rec resolve v = if fwd.(v) < 0 then v else resolve fwd.(v) in
         let rec pick () =
           let v = Rng.int rng nodes in
           if alive.(v) then v else pick ()
         in
         let alive_link = function
           | Direct (src, dst) -> alive.(src) && alive.(dst)
           | Up v -> alive.(v)
         in
         let now = ref 0 and clock = ref 0 and sseq = ref 0 and peak = ref 0 in
         let flight = ref [] (* (time, sseq, link, id) *) and recent = ref None in
         let send step =
           let l =
             match !recent with
             | Some l when Rng.int rng 3 = 0 && alive_link l -> l
             | _ when Rng.bool rng -> Up (pick ())
             | _ ->
                 let src = pick () in
                 Direct (src, pick ())
           in
           let id =
             match l with
             | Direct (src, dst) -> Scheduler.intern_direct s ~src ~dst
             | Up v -> Scheduler.intern_up s v
           in
           let st = state l in
           let drawn = !now + 1 + Rng.int r_rng 8 in
           let want = if fifo then max st.last drawn else drawn in
           if fifo then st.last <- want;
           st.flight <- st.flight + 1;
           Hashtbl.replace active l st;
           clock := !now;
           let got = Scheduler.decide s ~rng:s_rng ~max_delay:8 ~now:!now ~link:id in
           if got <> want then
             QCheck2.Test.fail_reportf "step %d: decide %d, reference %d" step got want;
           flight := (want, !sseq, l, id) :: !flight;
           incr sseq
         in
         let deliver step =
           let earliest =
             List.fold_left
               (fun ((t, q, _, _) as a) ((t', q', _, _) as b) ->
                 if t' < t || (t' = t && q' < q) then b else a)
               (List.hd !flight) !flight
           in
           let time, q, l, id = earliest in
           flight := List.filter (fun m -> m != earliest) !flight;
           let st = state l in
           st.flight <- st.flight - 1;
           let want = st.dmax > q in
           if not want then st.dmax <- q;
           let got = Scheduler.delivered s id ~sseq:q in
           if got <> want then
             QCheck2.Test.fail_reportf "step %d: delivered %b, reference %b" step got want;
           recent := Some l;
           if Rng.int rng 4 = 0 then now := max !now time
         in
         let delete () =
           let v = pick () in
           alive.(v) <- false;
           decr alive_n;
           fwd.(v) <- pick ();
           if fifo then begin
             let aimed =
               Hashtbl.fold
                 (fun l st acc ->
                   match l with
                   | (Direct (_, d) | Up d) when d = v && st.last > 0 -> (l, st) :: acc
                   | _ -> acc)
                 links []
             in
             List.iter
               (fun (l, st) ->
                 let l' =
                   match l with
                   | Direct (src, _) -> Direct (src, resolve v)
                   | Up _ -> Up (resolve v)
                 in
                 let st' = state l' in
                 st'.last <- max st'.last st.last;
                 Hashtbl.replace active l' st';
                 st.last <- 0)
               aimed
           end;
           Scheduler.on_node_deleted s ~deleted:v ~resolve
         in
         (* the send rate changes every 1,000 steps: in flight grows while
            it is above the delivery rate (45%) and drains after, so some
            runs grow the table *)
         let send_pct = ref 0 in
         for step = 1 to 10_000 do
           if step mod 1000 = 1 then send_pct := 20 + Rng.int rng 40;
           let send_pct = !send_pct and r = Rng.int rng 100 in
           if r < send_pct then send step
           else if r < send_pct + 45 then (if !flight <> [] then deliver step)
           else if r < send_pct + 48 then (if !alive_n > nodes / 2 then delete ())
           else now := !now + Rng.int rng 3;
           Hashtbl.filter_map_inplace
             (fun _ st -> if st.flight > 0 || st.last > !clock then Some st else None)
             active;
           peak := max !peak (Hashtbl.length active);
           if Scheduler.link_count s > max 64 (2 * !peak) then
             QCheck2.Test.fail_reportf "step %d: %d ids held, peak %d links live" step
               (Scheduler.link_count s) !peak
         done;
         (* ids were recycled: more links came and went than ids exist *)
         Hashtbl.length links > Scheduler.link_count s))

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
      prop_retirement_matches_reference;
    ] )
