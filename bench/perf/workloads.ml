(* The benchmark's four workloads.

   Each is a closed loop, the paper's controlled model: a client draws its
   next request from the workload generator and submits it only after the
   previous one was answered. Everything is driven from here through the
   library's public functions; the library sees only the generated ops. The
   network workloads drive [Net] with this file's own step loop (through
   {!Spans.step}), in the traced and the untraced run alike.

   A workload is set up by {!t.setup} (tree build and controller creation,
   the two set-up spans) and then driven once by [prepared.drive]. Its
   {!counters} are deterministic for a given seed and scale — they are the
   run's fingerprint — and [prepared.check] verifies the library's own
   invariants after the drive. *)

open Controller

type scale = Full | Tiny

let scale_of_string = function
  | "full" -> Some Full
  | "tiny" -> Some Tiny
  | _ -> None

type counters = {
  requests : int;  (** submitted *)
  answered : int;
  granted : int;
  cost : int;
      (** the paper's cost unit: [Net] messages, or the centralized
          controller's moves plus estimator messages *)
  bits : int;  (** total message bits ([Net] workloads) *)
  central_moves : int;  (** centralized controller moves (incl. epoch charges) *)
  estimator_msgs : int;  (** estimator messages beyond the controller's *)
  epochs : int;
  steps : int;  (** [Net.step] events executed *)
  misses : int;  (** [next_op_avoiding] draws that found nothing *)
  sim_time : int;
  final_size : int;
}

let fingerprint c =
  Printf.sprintf
    "requests=%d answered=%d granted=%d cost=%d bits=%d central_moves=%d \
     estimator_msgs=%d epochs=%d steps=%d misses=%d sim_time=%d final_size=%d"
    c.requests c.answered c.granted c.cost c.bits c.central_moves c.estimator_msgs
    c.epochs c.steps c.misses c.sim_time c.final_size

(* Per-request latency samples: wall ns from submit to answer, and the
   simulated ticks between the same two points (0 off the network). *)
module Lat = struct
  type t = { wall_ns : int array; ticks : int array; mutable n : int }

  let create capacity =
    { wall_ns = Array.make capacity 0; ticks = Array.make capacity 0; n = 0 }

  let record t ~wall ~ticks =
    if t.n < Array.length t.wall_ns then begin
      t.wall_ns.(t.n) <- wall;
      t.ticks.(t.n) <- ticks;
      t.n <- t.n + 1
    end

  let wall t = Array.sub t.wall_ns 0 t.n
  let ticks t = Array.sub t.ticks 0 t.n
end

type prepared = {
  drive : unit -> unit;
  counters : unit -> counters;
  check : unit -> (unit, string) result;
}

(* [setup scale ~seed] builds the workload's initial tree, which is fixed
   (built from the workload's own constant seed): its shape sets the heap
   and the set-up cost, and a different random tree per seed would spread
   both far more than the request stream does. [seed] is added to the base
   seeds of the request stream and the network's delay draws; seed 0 gives
   the seeds of the experiments the workloads come from (dist-estimate is
   E15). *)
type t = {
  name : string;
  requests : scale -> int;
  setup : scale -> seed:int -> Spans.t -> Lat.t -> prepared;
}

let build sp rng shape = Spans.phase sp Spans.Build (fun () -> Workload.Shape.build rng shape)

(* The library's invariants, checked after every drive; [Ok] when all hold. *)
let checks l =
  List.fold_left
    (fun acc (what, f) ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          match f () with
          | Ok () -> Ok ()
          | Error e -> Error (what ^ ": " ^ e)
          | exception e -> Error (what ^ ": " ^ Printexc.to_string e)))
    (Ok ()) l

let expect what b = if b then Ok () else Error what

let dtree_check tree () =
  Dtree.check tree;
  Ok ()

(* The first live node whose estimate [e] falls below [sw - slack]. *)
let estimates_cover tree ~slack ~estimate ~super_weight () =
  Dtree.fold_dfs tree ~init:(Ok ()) ~f:(fun acc v ->
      match acc with
      | Error _ -> acc
      | Ok () ->
          let e = estimate v and sw = super_weight v in
          if e + slack >= sw then acc
          else Error (Printf.sprintf "node %d: estimate %d below super-weight %d" v e sw))

(* A synchronous request: next_op and the controller call are the request's
   two children, and its latency is the call. *)
let sync_request sp lat ~parent ~draw ~call =
  let r = Spans.start sp Spans.Request ~parent in
  let s = Spans.start sp Spans.Next_op ~parent:r in
  let op = draw () in
  Spans.stop sp s;
  let t0 = Spans.now () in
  let s = Spans.start sp Spans.Submit ~parent:r in
  call op;
  Spans.stop sp s;
  Lat.record lat ~wall:(Spans.now () - t0) ~ticks:0;
  Spans.stop sp r

let zero =
  {
    requests = 0;
    answered = 0;
    granted = 0;
    cost = 0;
    bits = 0;
    central_moves = 0;
    estimator_msgs = 0;
    epochs = 0;
    steps = 0;
    misses = 0;
    sim_time = 0;
    final_size = 0;
  }

(* ------------------------------------------------------------------ *)
(* central-deep: Iterated on a deep path, deep-biased grow-only, driven
   past exhaustion. Read-heavy Central + Dtree ancestor climbs; no Net,
   Scheduler, Event_queue or estimator. *)

let central_deep =
  let dims = function Full -> (24576, 12288) | Tiny -> (768, 384) in
  let requests scale = snd (dims scale) + 200 in
  let setup scale ~seed sp lat =
    let n0, m = dims scale in
    let w = m / 8 and u = n0 + m + 64 in
    let n_req = requests scale in
    let tree = build sp (Rng.create ~seed:52) (Workload.Shape.Path n0) in
    let ctrl = Spans.phase sp Spans.Create (fun () -> Iterated.create ~m ~w ~u ~tree ()) in
    let wl = Workload.make ~seed:(53 + seed) ~deep_bias:true ~mix:Workload.Mix.grow_only () in
    let answered = ref 0 in
    let draw () = Workload.next_op wl tree in
    let call op =
      match Iterated.request ctrl op with
      | Types.Granted | Types.Rejected -> incr answered
      | Types.Exhausted -> ()
    in
    let drive () =
      let d = Spans.start sp Spans.Drive ~parent:(-1) in
      for _ = 1 to n_req do
        sync_request sp lat ~parent:d ~draw ~call
      done;
      Spans.stop sp d
    in
    let counters () =
      {
        zero with
        requests = n_req;
        answered = !answered;
        granted = Iterated.granted ctrl;
        cost = Iterated.moves ctrl;
        central_moves = Iterated.moves ctrl;
        final_size = Dtree.size tree;
      }
    in
    let check () =
      let g = Iterated.granted ctrl in
      checks
        [
          ("dtree", dtree_check tree);
          ("answered", fun () -> expect "a request went unanswered" (!answered = n_req));
          ("safety", fun () -> expect "granted > M" (g <= m));
          ( "liveness",
            fun () ->
              expect "rejected before M-W grants" (Iterated.rejected ctrl = 0 || g >= m - w) );
        ]
    in
    { drive; counters; check }
  in
  { name = "central-deep"; requests; setup }

(* ------------------------------------------------------------------ *)
(* estimate-churn: heavy-child decomposition (Subtree_estimator over
   Central's hooks) on a 2^18-node random tree under churn. Write-heavy
   Dtree insert/delete plus the estimator on the centralized transport. *)

let estimate_churn =
  let dims = function Full -> (1 lsl 18, 1 lsl 18) | Tiny -> (4096, 4096) in
  let requests scale = snd (dims scale) in
  let setup scale ~seed sp lat =
    let n0, n_req = dims scale in
    let tree = build sp (Rng.create ~seed:110) (Workload.Shape.Random n0) in
    let hc = Spans.phase sp Spans.Create (fun () -> Estimator.Heavy_child.create ~tree ()) in
    let wl = Workload.make ~seed:(111 + seed) ~mix:Workload.Mix.churn () in
    let answered = ref 0 in
    let draw () = Workload.next_op wl tree in
    let call op =
      Estimator.Heavy_child.submit hc op;
      incr answered
    in
    let drive () =
      let d = Spans.start sp Spans.Drive ~parent:(-1) in
      for _ = 1 to n_req do
        sync_request sp lat ~parent:d ~draw ~call
      done;
      Spans.stop sp d
    in
    let est () = Estimator.Heavy_child.estimator hc in
    let counters () =
      let moves = Estimator.Subtree_estimator.moves (est ()) in
      let msgs = Estimator.Heavy_child.messages hc in
      {
        zero with
        requests = n_req;
        answered = !answered;
        granted = !answered;
        cost = msgs;
        central_moves = moves;
        estimator_msgs = msgs - moves;
        epochs = Estimator.Heavy_child.epochs hc;
        final_size = Dtree.size tree;
      }
    in
    let check () =
      let est = est () in
      checks
        [
          ("dtree", dtree_check tree);
          ("answered", fun () -> expect "a change was not applied" (!answered = n_req));
          ( "estimate",
            estimates_cover tree ~slack:0
              ~estimate:(Estimator.Subtree_estimator.estimate est)
              ~super_weight:(Estimator.Subtree_estimator.super_weight est) );
          ( "light-ancestors",
            fun () ->
              let sw = Estimator.Subtree_estimator.super_weight est (Dtree.root tree) in
              let bound = 4.0 *. (log (float_of_int (max 2 sw)) /. log (4.0 /. 3.0)) in
              expect "light ancestors above O(log SW)"
                (float_of_int (Estimator.Heavy_child.max_light_ancestors hc) <= bound) );
        ]
    in
    { drive; counters; check }
  in
  { name = "estimate-churn"; requests; setup }

(* ------------------------------------------------------------------ *)
(* dist-estimate: experiment E15 — the distributed subtree estimator on a
   10^5-node random tree under churn, one request in flight, fifo_link.
   Message-bound: Net send -> Event_queue -> Scheduler -> deliver. *)

let dist_estimate =
  let dims = function Full -> (100_000, 125_000) | Tiny -> (2000, 2500) in
  let requests scale = snd (dims scale) in
  let setup scale ~seed sp lat =
    let n0, n_req = dims scale in
    let tree = build sp (Rng.create ~seed:211) (Workload.Shape.Random n0) in
    let net, st =
      Spans.phase sp Spans.Create (fun () ->
          let net =
            Net.create ~seed:(212 + seed) ~scheduler:Scheduler.Fifo_link ~tree ()
          in
          (net, Estimator.Subtree_estimator_dist.create ~net ()))
    in
    let wl = Workload.make ~seed:(213 + seed) ~mix:Workload.Mix.churn () in
    let submitted = ref 0 and answered = ref 0 and steps = ref 0 in
    let drive () =
      let d = Spans.start sp Spans.Drive ~parent:(-1) in
      let rec pump () =
        if !submitted < n_req then begin
          incr submitted;
          let r = Spans.start sp Spans.Request ~parent:d in
          let s = Spans.start sp Spans.Next_op ~parent:r in
          let op = Workload.next_op wl tree in
          Spans.stop sp s;
          let t0 = Spans.now () and tick0 = Net.now net in
          let s = Spans.start sp Spans.Submit ~parent:r in
          Estimator.Subtree_estimator_dist.submit st op ~k:(fun () ->
              incr answered;
              Lat.record lat ~wall:(Spans.now () - t0) ~ticks:(Net.now net - tick0);
              Spans.stop sp r;
              pump ());
          Spans.stop sp s
        end
      in
      pump ();
      while Spans.step sp net do
        incr steps
      done;
      Spans.stop sp d
    in
    let counters () =
      {
        zero with
        requests = !submitted;
        answered = !answered;
        granted = !answered;
        cost = Net.messages net;
        bits = Net.total_bits net;
        estimator_msgs = Estimator.Subtree_estimator_dist.overhead_messages st;
        epochs = Estimator.Subtree_estimator_dist.epochs st;
        steps = !steps;
        sim_time = Net.now net;
        final_size = Dtree.size tree;
      }
    in
    let check () =
      checks
        [
          ("dtree", dtree_check tree);
          ("pool", fun () -> Net.pool_check net);
          ("answered", fun () -> expect "a change was not applied" (!answered = n_req));
          (* one unit of slack per request in flight, and there is one *)
          ( "estimate",
            estimates_cover tree ~slack:1
              ~estimate:(Estimator.Subtree_estimator_dist.estimate st)
              ~super_weight:(Estimator.Subtree_estimator_dist.super_weight st) );
        ]
    in
    { drive; counters; check }
  in
  { name = "dist-estimate"; requests; setup }

(* ------------------------------------------------------------------ *)
(* dist-contend: the distributed controller under the adversarial LIFO
   scheduler with 8 concurrent clients whose requests never touch each
   other's nodes. The loop mirrors Dist_harness.run_on (same seeds, same
   reservation discipline, so the same counts) but steps the network
   itself. *)

let dist_contend =
  let clients = 8 in
  let dims = function Full -> (16384, 32768) | Tiny -> (512, 2048) in
  let requests scale = snd (dims scale) in
  let setup scale ~seed sp lat =
    let n0, n_req = dims scale in
    let m = 4 * n_req and w = n_req / 2 in
    let base = 0xD1CE in
    let tree = build sp (Rng.create ~seed:base) (Workload.Shape.Random n0) in
    let net, ctrl =
      Spans.phase sp Spans.Create (fun () ->
          let net =
            Net.create ~seed:(base + 1 + seed) ~max_delay:8
              ~scheduler:(Scheduler.Adversarial_lifo { window = 8 })
              ~tree ()
          in
          let params = Params.make ~m ~w ~u:(Dtree.size tree + n_req) in
          (net, Dist.create ~params ~net ()))
    in
    let wl = Workload.make ~seed:(base + 7 + seed) ~mix:Workload.Mix.churn () in
    let reserved : (Dtree.node, int) Hashtbl.t = Hashtbl.create 32 in
    let reserve v =
      Hashtbl.replace reserved v (1 + Option.value ~default:0 (Hashtbl.find_opt reserved v))
    in
    let release v =
      match Hashtbl.find_opt reserved v with
      | Some 1 | None -> Hashtbl.remove reserved v
      | Some n -> Hashtbl.replace reserved v (n - 1)
    in
    let submitted = ref 0 and answered = ref 0 and misses = ref 0 and steps = ref 0 in
    let drive () =
      let d = Spans.start sp Spans.Drive ~parent:(-1) in
      let rec pump () =
        if !submitted < n_req then draw (Spans.start sp Spans.Request ~parent:d)
      and draw r =
        let s = Spans.start sp Spans.Next_op ~parent:r in
        match Workload.next_op_avoiding wl tree ~forbidden:(Hashtbl.mem reserved) with
        | None ->
            (* everything in reach is reserved by in-flight requests: the
               same client retries the same request later *)
            Spans.stop sp s;
            incr misses;
            Net.schedule net ~delay:3 (fun () ->
                if !submitted < n_req then draw r else Spans.stop sp r)
        | Some op ->
            Spans.stop sp s;
            incr submitted;
            let nodes =
              List.sort_uniq Int.compare (Workload.request_site tree op :: Workload.touched tree op)
            in
            List.iter reserve nodes;
            let t0 = Spans.now () and tick0 = Net.now net in
            let s = Spans.start sp Spans.Submit ~parent:r in
            Dist.submit ctrl op ~k:(fun outcome ->
                List.iter release nodes;
                (match outcome with
                | Types.Granted | Types.Rejected -> incr answered
                | Types.Exhausted -> ());
                Lat.record lat ~wall:(Spans.now () - t0) ~ticks:(Net.now net - tick0);
                Spans.stop sp r;
                pump ());
            Spans.stop sp s
      in
      for _ = 1 to clients do
        pump ()
      done;
      while Spans.step sp net do
        incr steps
      done;
      Spans.stop sp d
    in
    let counters () =
      {
        zero with
        requests = !submitted;
        answered = !answered;
        granted = Dist.granted ctrl;
        cost = Net.messages net;
        bits = Net.total_bits net;
        steps = !steps;
        misses = !misses;
        sim_time = Net.now net;
        final_size = Dtree.size tree;
      }
    in
    let check () =
      checks
        [
          ("dtree", dtree_check tree);
          ("pool", fun () -> Net.pool_check net);
          ("locks", fun () -> Dist.check_locks ctrl);
          ("answered", fun () -> expect "a request went unanswered" (!answered = n_req));
          ( "outstanding",
            fun () -> expect "requests still outstanding" (Dist.outstanding ctrl = 0) );
          ("safety", fun () -> expect "granted > M" (Dist.granted ctrl <= m));
        ]
    in
    { drive; counters; check }
  in
  { name = "dist-contend"; requests; setup }

let all = [ central_deep; estimate_churn; dist_estimate; dist_contend ]
let find name = List.find_opt (fun w -> w.name = name) all
