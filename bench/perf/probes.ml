(* Isolated layer probes: tight loops over one public function each, reported
   as ns/op and B/op.

   A probe runs a fixed number of operations (after a fixed warm-up, so
   lazily interned state is in place) in five equal batches, and reports the
   median batch (ns/op) and the bytes allocated over all batches (B/op, net
   of the allocation made by reading the counters). The operation sequence
   is seeded, so B/op repeats to a small fraction of a byte.

   The Dtree, Rng, Package and Central micro-benchmarks are
   [bench/main.exe micro] and are not repeated here. These probes cover what
   it does not: the event queue at depth, the Net send->deliver path (hot
   link, spread links, and traced), the scheduler decisions, one estimator
   update, and a pure-OCaml calibration loop that tells machine drift apart
   from a regression. *)

type probe = {
  name : string;  (** metric stem: [<name>_ns], and [<name>_b] for all but the calibration *)
  calls : int;  (** thunk calls measured at full scale, about 0.1 s *)
  per : int;  (** operations per call of the thunk *)
  make : unit -> unit -> unit;  (** set up, then return the timed thunk *)
}

type result = { probe : string; ns_per_op : float; bytes_per_op : float }

(* The probe's one wire tag, declared the way the protocols declare theirs
   so that dynlint's conformance and message-flow passes account for it. *)
type wire = Hop

let wire_to_string w = match w with Hop -> "probe-hop" [@@dynlint.tag_universe]

(* One send->deliver round trip per call over the up-links of [srcs] (a
   power-of-two count, cycled); the receiver counts deliveries. *)
let send_deliver ?sink tree srcs =
  let net = Net.create ~seed:3 ?sink ~tree () in
  let hop = Net.intern_tag net (wire_to_string Hop) in
  let tag Hop = hop in
  let delivered = ref 0 in
  let k _ = incr delivered in
  let mask = Array.length srcs - 1 in
  let i = ref 0 in
  fun () ->
    Net.send_up net ~src:srcs.(!i land mask) ~tag:(tag Hop) ~bits:32 k;
    ignore (Net.step net);
    incr i

let random_nodes tree ~count ~seed =
  let rng = Rng.create ~seed in
  let nodes =
    Array.of_list (List.filter (fun v -> v <> Dtree.root tree) (Dtree.live_nodes tree))
  in
  Array.init count (fun _ -> Rng.pick_arr rng nodes)

let decide discipline () =
  let s = Scheduler.create discipline in
  let links = Array.init 1024 (fun v -> Scheduler.intern_direct s ~src:v ~dst:(v + 1)) in
  let rng = Rng.create ~seed:5 in
  let now = ref 0 in
  fun () ->
    incr now;
    ignore (Scheduler.decide s ~rng ~max_delay:8 ~now:!now ~link:links.(!now land 1023))

let probes =
  [
    {
      name = "probe.event_queue.add_pop";
      calls = 400_000;
      per = 1;
      make =
        (fun () ->
          (* the hold model at depth 1024: pop the earliest, re-add it later
             (main.exe micro's add+pop runs on an empty queue) *)
          let q = Event_queue.create ~dummy:0 in
          let rng = Rng.create ~seed:2 in
          let delays = Array.init 4096 (fun _ -> 1 + Rng.int rng 2048) in
          for i = 0 to 1023 do
            Event_queue.add q ~time:delays.(i) i
          done;
          let i = ref 0 in
          fun () ->
            let t = Event_queue.next_time q in
            let x = Event_queue.pop_exn q in
            Event_queue.add q ~time:(t + delays.(!i land 4095)) x;
            incr i);
    };
    {
      name = "probe.scheduler.fifo_decide";
      calls = 4_000_000;
      per = 1;
      make = decide Scheduler.Fifo_link;
    };
    {
      name = "probe.scheduler.lifo_decide";
      calls = 8_000_000;
      per = 1;
      make = decide (Scheduler.Adversarial_lifo { window = 8 });
    };
    {
      name = "probe.net.send_deliver_hot";
      calls = 300_000;
      per = 1;
      make =
        (fun () ->
          let tree = Dtree.create () in
          let leaf = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
          send_deliver tree [| leaf |]);
    };
    {
      name = "probe.net.send_deliver_spread";
      calls = 400_000;
      per = 1;
      make =
        (fun () ->
          let tree = Workload.Shape.build (Rng.create ~seed:4) (Workload.Shape.Random 100_000) in
          send_deliver tree (random_nodes tree ~count:65536 ~seed:6));
    };
    {
      name = "probe.net.traced_send_deliver";
      calls = 20_000;
      per = 1;
      make =
        (fun () ->
          (* every event is serialized to its JSONL line, then dropped *)
          let sink =
            Telemetry.Sink.create ~on_event:(fun e -> ignore (Telemetry.Event.to_line e)) ()
          in
          let tree = Dtree.create () in
          let leaf = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
          send_deliver ~sink tree [| leaf |]);
    };
    {
      name = "probe.estimator.update";
      calls = 40_000;
      per = 2;
      make =
        (fun () ->
          (* a leaf added under a random node of a 4096-node tree, then
             removed: two controlled changes through Subtree_estimator *)
          let tree = Workload.Shape.build (Rng.create ~seed:8) (Workload.Shape.Random 4096) in
          let added = ref (-1) in
          let on_applied = function
            | Workload.Leaf_added { leaf; _ } -> added := leaf
            | _ -> ()
          in
          let est = Estimator.Subtree_estimator.create ~on_applied ~tree () in
          let sites = random_nodes tree ~count:4096 ~seed:9 in
          let i = ref 0 in
          fun () ->
            Estimator.Subtree_estimator.submit est (Workload.Add_leaf sites.(!i land 4095));
            Estimator.Subtree_estimator.submit est (Workload.Remove_leaf !added);
            incr i);
    };
    {
      name = "machine.calib";
      calls = 20_000;
      per = 1024;
      make =
        (fun () ->
          (* fixed integer work, no memory traffic *)
          let x = ref 0x2545F491 in
          fun () ->
            for _ = 1 to 1024 do
              let v = !x in
              let v = v lxor (v lsl 13) land 0xFFFFFFFF in
              let v = v lxor (v lsr 17) in
              x := v lxor (v lsl 5) land 0xFFFFFFFF
            done;
            ignore (Sys.opaque_identity !x));
    };
  ]

let alloc_overhead () =
  let a0 = Spans.allocated_bytes () in
  let a1 = Spans.allocated_bytes () in
  a1 -. a0

let measure ~(scale : Workloads.scale) p =
  let batches = 5 in
  let n = max 1 ((match scale with Full -> p.calls | Tiny -> p.calls / 100) / batches) in
  let f = p.make () in
  for _ = 1 to n do
    f ()
  done;
  let times = Array.make batches 0 in
  let overhead = alloc_overhead () in
  let a0 = Spans.allocated_bytes () in
  for b = 0 to batches - 1 do
    let t0 = Spans.now () in
    for _ = 1 to n do
      f ()
    done;
    times.(b) <- Spans.now () - t0
  done;
  let a1 = Spans.allocated_bytes () in
  Array.sort Int.compare times;
  let ops = float_of_int (n * p.per) in
  {
    probe = p.name;
    ns_per_op = float_of_int times.(batches / 2) /. ops;
    bytes_per_op = (a1 -. a0 -. overhead) /. (float_of_int batches *. ops);
  }

let run ~scale = List.map (measure ~scale) probes

let metrics results =
  List.concat_map
    (fun r ->
      let ns = (r.probe ^ "_ns", r.ns_per_op, "ns") in
      if r.probe = "machine.calib" then [ ns ] else [ ns; (r.probe ^ "_b", r.bytes_per_op, "B") ])
    results
