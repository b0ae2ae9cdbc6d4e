(* The experiment harness: one section per quantitative claim of the paper
   (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the recorded
   outcomes). Each experiment prints the table it regenerates.

   Experiments are functions of an explicit {!ctx} — output formatter, tally,
   delivery discipline and parallelism — rather than process globals, so any
   number of them (and any number of rows inside one) can run concurrently.
   Each table row of every experiment is an independent, seeded simulation;
   {!rows} fans the rows of one table out over a [Pool] of [ctx.jobs]
   domains, rendering each row into its own buffer and merging text and
   tallies in input order, so the printed tables and the --json tallies are
   byte-identical whatever the parallelism. *)

open Controller

(* Machine-readable per-experiment tallies. Row bodies call {!note} as they
   print each table row; bench/main.ml gives every experiment a fresh {!ctx}
   and, under --json, writes the accumulated tallies out with
   [Telemetry.Json]. [alloc_bytes] is accounted per row, on the domain that
   ran the row, so the total is independent of -j. *)
module Results = struct
  type tally = {
    mutable messages : int;
    mutable moves : int;
    mutable bits : int;
    mutable rows : int;
    mutable alloc_bytes : int;
  }

  let make () = { messages = 0; moves = 0; bits = 0; rows = 0; alloc_bytes = 0 }

  let merge ~into t =
    into.messages <- into.messages + t.messages;
    into.moves <- into.moves + t.moves;
    into.bits <- into.bits + t.bits;
    into.rows <- into.rows + t.rows;
    into.alloc_bytes <- into.alloc_bytes + t.alloc_bytes
end

(* Per-run context: everything an experiment used to reach for process
   globals for. [scheduler = None] leaves the delivery discipline to
   {!Scheduler.default} (fifo_link, or the SIMNET_SCHEDULER override).
   [sink] (present under --trace-out) collects the full causal event trace
   of every Net-backed experiment; [profile] accumulates the per-phase GC
   probes surfaced as the --json gc_phases columns, timed by [clock] (the
   library takes no ambient time, so without one wall_s stays 0). *)
type ctx = {
  ppf : Format.formatter;
  tally : Results.tally;
  scheduler : Scheduler.discipline option;
  jobs : int;
  sink : Telemetry.Sink.t option;
  profile : Telemetry.Profile.t option;
  clock : (unit -> float) option;
}

let make_ctx ?scheduler ?(jobs = 1) ?(ppf = Format.std_formatter) ?sink ?profile
    ?clock () =
  { ppf; tally = Results.make (); scheduler; jobs; sink; profile; clock }

let effective_scheduler ctx =
  Option.value ~default:(Scheduler.default ()) ctx.scheduler

let printf ctx fmt = Format.fprintf ctx.ppf fmt

let note ctx ?(messages = 0) ?(moves = 0) ?(bits = 0) () =
  let t = ctx.tally in
  t.messages <- t.messages + messages;
  t.moves <- t.moves + moves;
  t.bits <- t.bits + bits;
  t.rows <- t.rows + 1

(* Run [f] inside a named GC-profiling phase when the context carries a
   profile; transparent otherwise. *)
let phase ctx name f =
  match ctx.profile with
  | None -> f ()
  | Some p -> Telemetry.Profile.run p ~name f

(* Fan the rows of one table out over the context's worker budget. Each row
   gets a private sub-context (own buffer, own tally, own sink/profile,
   jobs = 1 — rows do not nest pools); the buffered text, tallies, trace
   events and phase probes are folded back into [ctx] in input order, so the
   output — the trace included — is byte-identical whatever the parallelism.
   Sinks are single-domain objects, so each row sink gets its own disjoint
   span-id block, reserved from the parent sink on this domain before the
   fan-out; merged traces therefore never collide on span ids. *)
let rows ctx items f =
  let items =
    List.map
      (fun item ->
        let id_base =
          match ctx.sink with
          | None -> 0
          | Some s -> Telemetry.Sink.reserve_ids s (1 lsl 32)
        in
        (item, id_base))
      items
  in
  let run_row (item, id_base) =
    let buf = Buffer.create 256 in
    let sub =
      {
        ppf = Format.formatter_of_buffer buf;
        tally = Results.make ();
        scheduler = ctx.scheduler;
        jobs = 1;
        sink =
          (match ctx.sink with
          | None -> None
          | Some _ -> Some (Telemetry.Sink.create ~next_id:id_base ()));
        profile =
          (match ctx.profile with
          | None -> None
          | Some _ -> Some (Telemetry.Profile.create ?clock:ctx.clock ()));
        clock = ctx.clock;
      }
    in
    let a0 = Telemetry.Profile.allocated_bytes () in
    f sub item;
    sub.tally.Results.alloc_bytes <-
      sub.tally.Results.alloc_bytes
      + int_of_float (Telemetry.Profile.allocated_bytes () -. a0);
    Format.pp_print_flush sub.ppf ();
    (Buffer.contents buf, sub.tally, sub.sink, sub.profile)
  in
  List.iter
    (fun (text, tally, row_sink, row_profile) ->
      Format.pp_print_string ctx.ppf text;
      Results.merge ~into:ctx.tally tally;
      (match (ctx.sink, row_sink) with
      | Some parent, Some s ->
          List.iter (Telemetry.Sink.record parent) (Telemetry.Sink.events s)
      | _ -> ());
      match (ctx.profile, row_profile) with
      | Some parent, Some p -> Telemetry.Profile.merge ~into:parent p
      | _ -> ())
    (Pool.map ~jobs:ctx.jobs run_row items)

let hr ctx = printf ctx "%s@." (String.make 78 '-')

let section ctx id title =
  printf ctx "@.";
  hr ctx;
  printf ctx "%s  %s@." id title;
  hr ctx

let log2f n = Stats.log2 (float_of_int (max 2 n))

(* ------------------------------------------------------------------ *)
(* E1: Theorem 3.5 (first part) - adaptive centralized move complexity *)

let theorem_3_5_bound ~n0 ~m ~w sizes_at_changes =
  let logmw = max 1.0 (Stats.log2 (float_of_int (m + 1) /. float_of_int (w + 1))) in
  let base = float_of_int n0 *. log2f n0 *. log2f n0 *. logmw in
  List.fold_left
    (fun acc nj -> acc +. (log2f nj *. log2f nj *. logmw))
    base sizes_at_changes

let run_adaptive_once ?(variant = Adaptive.By_changes) ~seed ~n0 ~m ~w ~requests ~mix () =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
  let ctrl = Adaptive.create ~variant ~m ~w ~tree () in
  let wl = Workload.make ~seed:(seed + 1) ~mix () in
  let sizes = ref [] in
  for _ = 1 to requests do
    let op = Workload.next_op wl tree in
    match Adaptive.request ctrl op with
    | Types.Granted -> (
        match op with
        | Workload.Non_topological _ -> ()
        | _ -> sizes := Dtree.size tree :: !sizes)
    | Types.Rejected | Types.Exhausted -> ()
  done;
  (Adaptive.moves ctrl, Adaptive.granted ctrl, !sizes)

let e1 ctx =
  section ctx "E1" "Theorem 3.5(1): moves = O(n0 log^2 n0 log(M/W+1) + sum_j log^2 n_j log(M/W+1))";
  printf ctx "churn workload, M = n0, W = M/8; the moves/bound ratio should stay flat@.@.";
  printf ctx "%8s %12s %14s %14s %8s@." "n0" "granted" "moves" "bound" "ratio";
  rows ctx [ 64; 128; 256; 512; 1024; 2048; 4096 ] (fun row n0 ->
      let m = n0 and w = max 1 (n0 / 8) in
      let moves, granted, sizes =
        run_adaptive_once ~seed:(41 + n0) ~n0 ~m ~w ~requests:(2 * n0)
          ~mix:Workload.Mix.churn ()
      in
      let bound = theorem_3_5_bound ~n0 ~m ~w sizes in
      note row ~moves ();
      printf row "%8d %12d %14s %14.0f %8.4f@." n0 granted (Stats.pretty_int moves)
        bound
        (float_of_int moves /. bound));
  (* the second variant of Theorem 3.5: epochs rotate when the size doubles,
     giving O(N log^2 N log(M/(W+1))) for the maximal simultaneous size N *)
  printf ctx
    "@.Theorem 3.5(2) (epochs rotate on size doubling), grow-only from n0 = 16:@.@.";
  printf ctx "%8s %8s %12s %14s %14s %8s@." "M" "final N" "granted" "moves"
    "N log^2 N lg" "ratio";
  rows ctx [ 256; 512; 1024; 2048; 4096 ] (fun row m ->
      let w = max 1 (m / 8) in
      let moves, granted, sizes =
        run_adaptive_once ~variant:Adaptive.By_doubling ~seed:(43 + m) ~n0:16 ~m ~w
          ~requests:m ~mix:Workload.Mix.grow_only ()
      in
      let n_max = List.fold_left max 16 sizes in
      let logmw = max 1.0 (Stats.log2 (float_of_int (m + 1) /. float_of_int (w + 1))) in
      let bound = float_of_int n_max *. log2f n_max *. log2f n_max *. logmw in
      note row ~moves ();
      printf row "%8d %8d %12d %14s %14.0f %8.4f@." m n_max granted
        (Stats.pretty_int moves) bound
        (float_of_int moves /. bound))

(* ------------------------------------------------------------------ *)
(* E2: Observation 3.4 - the log(M/(W+1)) dependence                   *)

let e2 ctx =
  section ctx "E2" "Observation 3.4: move complexity scales with log(M/(W+1))";
  let n0 = 4096 and m = 2048 in
  printf ctx
    "deep path of %d nodes, M = %d, deep-biased grow-only requests, driven to@." n0 m;
  printf ctx
    "exhaustion. moves must stay below c * U log^2 U log(M/(W+1)) with one small c,@.";
  printf ctx "and the halving iterations below log(M/(W+1)) + 2@.@.";
  printf ctx "%8s %14s %12s %12s %16s %8s@." "W" "log(M/(W+1))" "iterations" "moves"
    "bound" "ratio";
  rows ctx [ 0; 1; 3; 15; 63; 255; 1023 ] (fun row w ->
      let u = n0 + m + 64 in
      let tree, ctrl =
        phase row "e2/build" (fun () ->
            let rng = Rng.create ~seed:52 in
            let tree = Workload.Shape.build rng (Workload.Shape.Path n0) in
            (tree, Iterated.create ~m ~w ~u ~tree ()))
      in
      phase row "e2/drive" (fun () ->
          let wl =
            Workload.make ~seed:53 ~deep_bias:true ~mix:Workload.Mix.grow_only ()
          in
          for _ = 1 to m + 200 do
            ignore (Iterated.request ctrl (Workload.next_op wl tree))
          done);
      let logterm = max 1.0 (Stats.log2 (float_of_int (m + 1) /. float_of_int (w + 1))) in
      let bound = float_of_int u *. log2f u *. log2f u *. logterm in
      note row ~moves:(Iterated.moves ctrl) ();
      printf row "%8d %14.2f %12d %12s %16.0f %8.4f@." w logterm
        (Iterated.iterations ctrl)
        (Stats.pretty_int (Iterated.moves ctrl))
        bound
        (float_of_int (Iterated.moves ctrl) /. bound))

(* ------------------------------------------------------------------ *)
(* E3: grow-only comparison with [4]'s bin hierarchy and the trivial    *)
(* controller                                                          *)

let e3 ctx =
  section ctx "E3" "grow-only trees: ours vs Afek et al. [4] bins vs trivial (move complexity)";
  printf ctx
    "deep path of n0 nodes, M = 2 n0, W = M/2, deep-biased leaf insertions, driven@.";
  printf ctx "to exhaustion; per-grant cost is the fair comparison@.@.";
  printf ctx "%6s %6s | %10s %7s %9s | %10s %7s %9s | %10s %9s@." "n0" "M" "ours"
    "grant" "per-grant" "AAPS [4]" "grant" "per-grant" "trivial" "per-grant";
  rows ctx
    [ (512, 2); (1024, 2); (2048, 2); (512, 16); (1024, 16) ]
    (fun row (n0, mfactor) ->
      let m = mfactor * n0 in
      let w = m / 2 in
      let u = n0 + m + 64 in
      let requests = m + 100 in
      let run_grow request granted_of moves_of tree =
        let wl = Workload.make ~seed:61 ~deep_bias:true ~mix:Workload.Mix.grow_only () in
        for _ = 1 to requests do
          ignore (request (Workload.next_op wl tree))
        done;
        (moves_of (), granted_of ())
      in
      let fresh () =
        let rng = Rng.create ~seed:(60 + n0) in
        Workload.Shape.build rng (Workload.Shape.Path n0)
      in
      let t1 = fresh () in
      let ours = Iterated.create ~m ~w ~u ~tree:t1 () in
      let ours_moves, ours_granted =
        run_grow (Iterated.request ours)
          (fun () -> Iterated.granted ours)
          (fun () -> Iterated.moves ours)
          t1
      in
      let t2 = fresh () in
      let aaps = Baseline_aaps.Iterated.create ~m ~w ~u ~tree:t2 () in
      let aaps_moves, aaps_granted =
        run_grow
          (Baseline_aaps.Iterated.request aaps)
          (fun () -> Baseline_aaps.Iterated.granted aaps)
          (fun () -> Baseline_aaps.Iterated.moves aaps)
          t2
      in
      let t3 = fresh () in
      let triv = Baseline_trivial.create ~m ~tree:t3 in
      let triv_moves, triv_granted =
        run_grow (Baseline_trivial.request triv)
          (fun () -> Baseline_trivial.granted triv)
          (fun () -> Baseline_trivial.moves triv)
          t3
      in
      let per m g = float_of_int m /. float_of_int (max 1 g) in
      note row ~moves:ours_moves ();
      printf row "%6d %6d | %10s %7d %9.1f | %10s %7d %9.1f | %10s %9.1f@." n0 m
        (Stats.pretty_int ours_moves) ours_granted (per ours_moves ours_granted)
        (Stats.pretty_int aaps_moves) aaps_granted (per aaps_moves aaps_granted)
        (Stats.pretty_int triv_moves) (per triv_moves triv_granted));
  printf ctx
    "@.ours grants within [M-W, M] exactly; the bin hierarchy strands a constant@.";
  printf ctx "fraction of M, its structural price for depth-keyed bins.@."

(* ------------------------------------------------------------------ *)
(* E4: the full dynamic model, where [4] cannot run at all             *)

let e4 ctx =
  section ctx "E4" "full dynamic model (insert/delete leaves and internal nodes)";
  printf ctx
    "deep caterpillar of n0 nodes, M = n0, W = M/2, deep-biased requests;@.";
  printf ctx "AAPS [4] raises on its first non-insert request@.@.";
  printf ctx "%6s %14s | %12s %12s %8s@." "n0" "mix" "ours" "trivial" "ratio";
  rows ctx
    [
      (1024, Workload.Mix.churn, "churn");
      (4096, Workload.Mix.churn, "churn");
      (1024, Workload.Mix.shrink_heavy, "shrink-heavy");
      (4096, Workload.Mix.shrink_heavy, "shrink-heavy");
    ]
    (fun row (n0, mix, mix_name) ->
      let m = n0 and w = max 1 (n0 / 2) in
      let requests = m + 100 in
      let rng = Rng.create ~seed:(70 + n0) in
      let tree = Workload.Shape.build rng (Workload.Shape.Caterpillar n0) in
      let ctrl = Adaptive.create ~m ~w ~tree () in
      let wl = Workload.make ~seed:71 ~deep_bias:true ~mix () in
      for _ = 1 to requests do
        ignore (Adaptive.request ctrl (Workload.next_op wl tree))
      done;
      let rng = Rng.create ~seed:(70 + n0) in
      let tree2 = Workload.Shape.build rng (Workload.Shape.Caterpillar n0) in
      let triv = Baseline_trivial.create ~m ~tree:tree2 in
      let wl2 = Workload.make ~seed:71 ~deep_bias:true ~mix () in
      for _ = 1 to requests do
        ignore (Baseline_trivial.request triv (Workload.next_op wl2 tree2))
      done;
      note row ~moves:(Adaptive.moves ctrl) ();
      printf row "%6d %14s | %12s %12s %8.2f@." n0 mix_name
        (Stats.pretty_int (Adaptive.moves ctrl))
        (Stats.pretty_int (Baseline_trivial.moves triv))
        (float_of_int (Baseline_trivial.moves triv)
        /. float_of_int (max 1 (Adaptive.moves ctrl))));
  (* demonstrate AAPS's inapplicability *)
  let rng = Rng.create ~seed:77 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 64) in
  let aaps =
    Baseline_aaps.create ~params:(Params.make ~m:64 ~w:32 ~u:128) ~tree
  in
  let leaf = Dtree.any_leaf tree in
  (try
     ignore (Baseline_aaps.request aaps (Workload.Remove_leaf leaf));
     printf ctx "@.unexpected: AAPS accepted a deletion@."
   with Invalid_argument msg ->
     printf ctx "@.AAPS on a deletion: Invalid_argument %S@." msg)

(* ------------------------------------------------------------------ *)
(* E5: Theorem 4.9 - distributed message complexity and message size   *)

let e5 ctx =
  section ctx "E5" "Theorem 4.9: distributed controller, concurrent requests";
  printf ctx
    "churn, M = n0, W = M/8, concurrency 8; message complexity should track the@.";
  printf ctx "centralized bound shape, messages stay O(log N) bits@.@.";
  printf ctx "%6s %10s %12s %14s %8s %10s %9s@." "n0" "granted" "messages" "bound"
    "ratio" "max bits" "8 log N";
  rows ctx [ 64; 128; 256; 512; 1024 ] (fun row n0 ->
      let m = n0 and w = max 1 (n0 / 8) in
      let stats =
        Dist_harness.run ~seed:(80 + n0) ~concurrency:8 ?scheduler:row.scheduler
          ?sink:row.sink ~shape:(Workload.Shape.Random n0)
          ~mix:Workload.Mix.churn ~m ~w ~requests:(2 * n0) ()
      in
      let logmw = max 1.0 (Stats.log2 (float_of_int (m + 1) /. float_of_int (w + 1))) in
      let bound = float_of_int n0 *. log2f n0 *. log2f n0 *. logmw in
      note row ~messages:stats.Dist_harness.messages
        ~bits:stats.Dist_harness.total_bits ();
      printf row "%6d %10d %12s %14.0f %8.4f %10d %9d@." n0
        stats.Dist_harness.granted
        (Stats.pretty_int stats.Dist_harness.messages)
        bound
        (float_of_int stats.Dist_harness.messages /. bound)
        stats.Dist_harness.max_message_bits
        (8 * Stats.ceil_log2 (max 2 (2 * n0))))

(* ------------------------------------------------------------------ *)
(* E6: Theorem 5.1 - size estimation                                   *)

let run_size_estimation ?scheduler ?sink ~seed ~n0 ~beta ~changes ~mix () =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
  let net = Net.create ~seed:(seed + 1) ?scheduler ?sink ~tree () in
  let se = Estimator.Size_estimation.create ~beta ~net () in
  let worst = ref 1.0 in
  Dist_harness.drive ~concurrency:4 ~net ~requests:changes
    ~submit:(Estimator.Size_estimation.submit se)
    ~on_answer:(fun () ->
      let n = float_of_int (Dtree.size tree) in
      let est = float_of_int (Estimator.Size_estimation.estimate se (Dtree.root tree)) in
      let r = if est > n then est /. n else n /. est in
      if r > !worst then worst := r)
    (Workload.make ~seed:(seed + 2) ~mix ());
  Net.run net;
  (se, net, !worst)

let e6 ctx =
  section ctx "E6" "Theorem 5.1: size estimation - beta-approximation and message complexity";
  printf ctx "churn workload; every node estimates within beta at all times@.@.";
  printf ctx "%6s %6s %9s %8s %12s %14s %14s@." "n0" "beta" "changes" "epochs"
    "messages" "msgs/change" "log^2 n";
  rows ctx
    [ (64, 2.0); (128, 2.0); (256, 2.0); (512, 2.0); (1024, 2.0); (256, 1.5); (256, 3.0) ]
    (fun row (n0, beta) ->
      let changes = 2 * n0 in
      let se, net, worst =
        phase row "e6/run" (fun () ->
            run_size_estimation ?scheduler:row.scheduler ?sink:row.sink
              ~seed:(90 + n0) ~n0 ~beta ~changes ~mix:Workload.Mix.churn ())
      in
      let total =
        Net.messages net + Estimator.Size_estimation.overhead_messages se
      in
      note row ~messages:total ~bits:(Net.total_bits net) ();
      printf row "%6d %6.1f %9d %8d %12s %14.1f %14.1f   (worst ratio %.3f)@." n0
        beta changes
        (Estimator.Size_estimation.epochs se)
        (Stats.pretty_int total)
        (float_of_int total /. float_of_int changes)
        (log2f n0 *. log2f n0)
        worst)

(* ------------------------------------------------------------------ *)
(* E7: Theorem 5.2 - name assignment                                   *)

let e7 ctx =
  section ctx "E7" "Theorem 5.2: name assignment - unique ids in [1, 4n] at all times";
  printf ctx "%6s %9s %8s %12s %14s %12s@." "n0" "changes" "epochs" "messages"
    "msgs/change" "max id/n";
  rows ctx [ 64; 128; 256; 512; 1024 ] (fun row n0 ->
      let changes = 2 * n0 in
      let rng = Rng.create ~seed:(100 + n0) in
      let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
      let net =
        Net.create ~seed:(101 + n0) ?scheduler:row.scheduler ?sink:row.sink
          ~tree ()
      in
      let na = Estimator.Name_assignment.create ~net () in
      Dist_harness.drive ~concurrency:4 ~net ~requests:changes
        ~submit:(Estimator.Name_assignment.submit na) ~on_answer:ignore
        (Workload.make ~seed:102 ~mix:Workload.Mix.churn ());
      Net.run net;
      let total = Net.messages net + Estimator.Name_assignment.overhead_messages na in
      note row ~messages:total ~bits:(Net.total_bits net) ();
      printf row "%6d %9d %8d %12s %14.1f %12.3f@." n0 changes
        (Estimator.Name_assignment.epochs na)
        (Stats.pretty_int total)
        (float_of_int total /. float_of_int changes)
        (Estimator.Name_assignment.max_id_ever_ratio na))

(* ------------------------------------------------------------------ *)
(* E8: Theorem 5.4 - heavy-child decomposition                         *)

let e8 ctx =
  section ctx "E8" "Theorem 5.4: heavy-child decomposition - light ancestors are O(log n)";
  printf ctx "%20s %9s %8s %8s %14s %16s@." "shape" "changes" "n" "worst"
    "log_{4/3} SW" "messages";
  rows ctx
    [
      (Workload.Shape.Random 256, Workload.Mix.churn, 512);
      (Workload.Shape.Random 1024, Workload.Mix.churn, 1024);
      (Workload.Shape.Path 512, Workload.Mix.grow_only, 512);
      (Workload.Shape.Balanced (2, 1023), Workload.Mix.churn, 1024);
      (Workload.Shape.Star 512, Workload.Mix.churn, 512);
      (Workload.Shape.Caterpillar 512, Workload.Mix.shrink_heavy, 512);
    ]
    (fun row (shape, mix, changes) ->
      let rng = Rng.create ~seed:110 in
      let tree = Workload.Shape.build rng shape in
      let hc = Estimator.Heavy_child.create ~tree () in
      let wl = Workload.make ~seed:111 ~mix () in
      for _ = 1 to changes do
        Estimator.Heavy_child.submit hc (Workload.next_op wl tree)
      done;
      let sw_root =
        Estimator.Subtree_estimator.super_weight (Estimator.Heavy_child.estimator hc) 0
      in
      note row ~messages:(Estimator.Heavy_child.messages hc) ();
      printf row "%20s %9d %8d %8d %14.1f %16s@."
        (Workload.Shape.name shape)
        changes (Dtree.size tree)
        (Estimator.Heavy_child.max_light_ancestors hc)
        (log (float_of_int (max 2 sw_root)) /. log (4.0 /. 3.0))
        (Stats.pretty_int (Estimator.Heavy_child.messages hc)))

(* ------------------------------------------------------------------ *)
(* E9: Corollary 5.7 - dynamic ancestry labeling                       *)

let e9 ctx =
  section ctx "E9" "Corollary 5.7: ancestry labels stay log n + O(1) bits under churn";
  printf ctx "%6s %9s %8s %10s %12s %12s %14s@." "n0" "changes" "n" "relabels"
    "label bits" "2 log n" "messages";
  rows ctx [ 64; 128; 256; 512; 1024 ] (fun row n0 ->
      let changes = 2 * n0 in
      let rng = Rng.create ~seed:(120 + n0) in
      let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
      let al = Estimator.Ancestry_labeling.create ~tree () in
      let wl = Workload.make ~seed:121 ~mix:Workload.Mix.churn () in
      for _ = 1 to changes do
        Estimator.Ancestry_labeling.submit al (Workload.next_op wl tree)
      done;
      note row ~messages:(Estimator.Ancestry_labeling.messages al)
        ~bits:(Estimator.Ancestry_labeling.label_bits al) ();
      printf row "%6d %9d %8d %10d %12d %12d %14s@." n0 changes (Dtree.size tree)
        (Estimator.Ancestry_labeling.relabels al)
        (Estimator.Ancestry_labeling.label_bits al)
        (2 * Stats.ceil_log2 (max 2 (Dtree.size tree)))
        (Stats.pretty_int (Estimator.Ancestry_labeling.messages al)))

(* ------------------------------------------------------------------ *)
(* E10: Claim 4.8 - whiteboard memory                                  *)

let e10 ctx =
  section ctx "E10" "Claim 4.8: whiteboard memory O(deg(v) log N + log^3 N + log^2 U) bits";
  printf ctx "%20s %6s %14s %14s@." "shape" "n0" "max wb bits" "claim bound";
  rows ctx
    [
      (Workload.Shape.Random 256, 256);
      (Workload.Shape.Star 256, 256);
      (Workload.Shape.Path 256, 256);
      (Workload.Shape.Random 1024, 1024);
    ]
    (fun row (shape, n0) ->
      let m = n0 and w = max 1 (n0 / 8) in
      let requests = n0 in
      let stats =
        Dist_harness.run ~seed:(130 + n0) ~concurrency:8 ?scheduler:row.scheduler
          ?sink:row.sink ~shape ~mix:Workload.Mix.churn ~m ~w ~requests ()
      in
      let nmax = n0 + requests in
      let log_n = Stats.ceil_log2 (max 2 nmax) and log_u = Stats.ceil_log2 (max 2 nmax) in
      (* the queue term deg(v) log N is bounded by concurrency here *)
      let bound = (16 * log_n) + (log_n * log_n * log_n) + (log_u * log_u) in
      note row ~messages:stats.Dist_harness.messages
        ~bits:stats.Dist_harness.max_wb_bits ();
      printf row "%20s %6d %14d %14d@." (Workload.Shape.name shape) n0
        stats.Dist_harness.max_wb_bits bound)

(* ------------------------------------------------------------------ *)
(* E11: Section 5.4 - extended labeling schemes (routing, NCA, distance) *)

let e11 ctx =
  section ctx "E11" "Section 5.4: routing, NCA and distance labeling under controlled dynamics";
  printf ctx "%10s %6s %9s %12s %12s %12s %10s@." "scheme" "n0" "changes"
    "label bits" "bound-ish" "messages" "relabels";
  (* routing and NCA under churn *)
  rows ctx [ 128; 512 ] (fun row n0 ->
      let changes = 2 * n0 in
      let rng = Rng.create ~seed:(140 + n0) in
      let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
      let tr = Estimator.Tree_routing.create ~tree () in
      let wl = Workload.make ~seed:141 ~mix:Workload.Mix.churn () in
      for _ = 1 to changes do
        Estimator.Tree_routing.submit tr (Workload.next_op wl tree)
      done;
      note row ~messages:(Estimator.Tree_routing.messages tr)
        ~bits:(Estimator.Tree_routing.address_bits tr) ();
      printf row "%10s %6d %9d %12d %12d %12s %10d@." "routing" n0 changes
        (Estimator.Tree_routing.address_bits tr)
        (2 * Stats.ceil_log2 (max 2 (Dtree.size tree)))
        (Stats.pretty_int (Estimator.Tree_routing.messages tr))
        (Estimator.Tree_routing.relabels tr));
  rows ctx [ 128; 512 ] (fun row n0 ->
      let changes = 2 * n0 in
      let rng = Rng.create ~seed:(150 + n0) in
      let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
      let nl = Estimator.Nca_labeling.create ~tree () in
      let leaf_mix =
        {
          Workload.Mix.add_leaf = 0.5;
          remove_leaf = 0.5;
          add_internal = 0.0;
          remove_internal = 0.0;
          non_topological = 0.0;
        }
      in
      let wl = Workload.make ~seed:151 ~mix:leaf_mix () in
      for _ = 1 to changes do
        Estimator.Nca_labeling.submit nl (Workload.next_op wl tree)
      done;
      note row ~messages:(Estimator.Nca_labeling.messages nl)
        ~bits:(Estimator.Nca_labeling.max_label_bits nl) ();
      printf row "%10s %6d %9d %12d %12d %12s %10d@." "nca" n0 changes
        (Estimator.Nca_labeling.max_label_bits nl)
        (let lg = Stats.ceil_log2 (max 2 (Dtree.size tree)) in
         2 * lg * (lg + 1))
        (Stats.pretty_int (Estimator.Nca_labeling.messages nl))
        (Estimator.Nca_labeling.relabels nl));
  (* distance labels under pure shrinking, the corollary's scope *)
  rows ctx [ 128; 512 ] (fun row n0 ->
      let rng = Rng.create ~seed:(160 + n0) in
      let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
      let dl = Estimator.Distance_labeling.create ~tree () in
      let deleted = ref 0 in
      while Dtree.size tree > n0 / 8 do
        let leaf = Dtree.any_leaf tree in
        if leaf <> Dtree.root tree then begin
          Estimator.Distance_labeling.submit dl (Workload.Remove_leaf leaf);
          incr deleted
        end
      done;
      note row ~messages:(Estimator.Distance_labeling.messages dl)
        ~bits:(Estimator.Distance_labeling.max_label_bits dl) ();
      printf row "%10s %6d %9d %12d %12d %12s %10d@." "distance" n0 !deleted
        (Estimator.Distance_labeling.max_label_bits dl)
        (let lg = Stats.ceil_log2 (max 2 (Dtree.size tree)) in
         2 * lg * (lg + 1))
        (Stats.pretty_int (Estimator.Distance_labeling.messages dl))
        (Estimator.Distance_labeling.relabels dl))

(* ------------------------------------------------------------------ *)
(* E12: ablation - the psi geometry of Section 3.1                      *)

let e12 ctx =
  section ctx "E12" "ablation: scaling the paper's psi distance unit";
  printf ctx
    "deep path (4096), grow-only deep-biased, M = 2048, W = M/2, single fixed-U@.";
  printf ctx
    "controller run to exhaustion. Shrinking psi cheapens walks but voids the@.";
  printf ctx
    "waste analysis (liveness window can break); growing it degrades towards the@.";
  printf ctx "trivial root-walk controller@.@.";
  printf ctx "%10s %8s %12s %12s %12s %14s@." "psi scale" "psi" "moves" "granted"
    "leftover" "window kept";
  let n0 = 4096 and m = 2048 in
  let w = m / 2 in
  rows ctx [ 0.25; 0.5; 1.0; 2.0; 4.0 ] (fun row scale ->
      let rng = Rng.create ~seed:171 in
      let tree = Workload.Shape.build rng (Workload.Shape.Path n0) in
      let u = n0 + m + 64 in
      let params = Params.make_scaled ~psi_scale:scale ~m ~w ~u in
      let c =
        Central.create ~reject_mode:Types.Report ?telemetry:row.sink ~params
          ~tree ()
      in
      let wl = Workload.make ~seed:172 ~deep_bias:true ~mix:Workload.Mix.grow_only () in
      let exhausted = ref false in
      while not !exhausted do
        match Central.request c (Workload.next_op wl tree) with
        | Types.Granted -> ()
        | Types.Exhausted -> exhausted := true
        | Types.Rejected -> assert false  (* dynlint: allow unsafe -- base controller runs in report mode and never rejects *)
      done;
      note row ~moves:(Central.moves c) ();
      printf row "%10.2f %8d %12s %12d %12d %14s@." scale params.Params.psi
        (Stats.pretty_int (Central.moves c))
        (Central.granted c) (Central.leftover c)
        (if Central.granted c >= m - w then "yes" else "NO"))

(* ------------------------------------------------------------------ *)
(* E13: ablation - request concurrency in the distributed controller   *)

let e13 ctx =
  section ctx "E13" "ablation: distributed request concurrency";
  printf ctx
    "churn, n0 = 256, M = 512 (ample); lock waiting costs time, not messages:@.";
  printf ctx "message counts stay flat while completion time drops@.@.";
  printf ctx "%12s %10s %12s %12s@." "concurrency" "granted" "messages" "sim time";
  rows ctx [ 1; 2; 4; 8; 16; 32 ] (fun row conc ->
      let stats =
        Dist_harness.run ~seed:181 ~concurrency:conc ?scheduler:row.scheduler
          ?sink:row.sink
          ~shape:(Workload.Shape.Random 256)
          ~mix:Workload.Mix.churn ~m:512 ~w:64 ~requests:400 ()
      in
      note row ~messages:stats.Dist_harness.messages
        ~bits:stats.Dist_harness.total_bits ();
      printf row "%12d %10d %12s %12s@." conc stats.Dist_harness.granted
        (Stats.pretty_int stats.Dist_harness.messages)
        (Stats.pretty_int stats.Dist_harness.sim_time))

(* ------------------------------------------------------------------ *)
(* E14: scale - the arena tree at 10^6 nodes                           *)

let e14 ctx =
  section ctx "E14" "scale: 10^6-node trees under churn and a deep-path adversary";
  printf ctx
    "the flat-arena Dtree at full scale: a random tree of 2^20 nodes under@.";
  printf ctx
    "churn, a deep caterpillar under shrink-heavy churn, and a@.";
  printf ctx
    "2^20-node path driven by deep-biased requests -- the degenerate shape@.";
  printf ctx
    "whose recursive traversals overflowed the stack before the arena. Every@.";
  printf ctx
    "row closes with a full structural audit plus a DFS fold and a subtree@.";
  printf ctx "size at the root, all iterative@.@.";
  printf ctx "%14s %9s %9s %14s %9s %9s %6s@." "shape" "n0" "granted" "moves"
    "final n" "dfs n" "audit";
  rows ctx [ `Churn; `Shrink; `Deep ] (fun row kind ->
      let shape_name, n0, granted, moves, tree =
        match kind with
        | `Churn ->
            let n0 = 1 lsl 20 in
            let tree, ctrl, wl =
              phase row "e14/build" (fun () ->
                  let rng = Rng.create ~seed:201 in
                  let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
                  let m = n0 / 4 and w = n0 / 32 in
                  let ctrl = Adaptive.create ~m ~w ~tree () in
                  let wl = Workload.make ~seed:202 ~mix:Workload.Mix.churn () in
                  (tree, ctrl, wl))
            in
            phase row "e14/drive" (fun () ->
                for _ = 1 to n0 / 8 do
                  ignore (Adaptive.request ctrl (Workload.next_op wl tree))
                done);
            ("random-churn", n0, Adaptive.granted ctrl, Adaptive.moves ctrl, tree)
        | `Shrink ->
            let n0 = 1 lsl 15 in
            let tree, ctrl, wl =
              phase row "e14/build" (fun () ->
                  let rng = Rng.create ~seed:203 in
                  let tree =
                    Workload.Shape.build rng (Workload.Shape.Caterpillar n0)
                  in
                  let m = n0 / 4 and w = n0 / 32 in
                  let ctrl = Adaptive.create ~m ~w ~tree () in
                  let wl =
                    Workload.make ~seed:204 ~mix:Workload.Mix.shrink_heavy ()
                  in
                  (tree, ctrl, wl))
            in
            phase row "e14/drive" (fun () ->
                for _ = 1 to n0 / 8 do
                  ignore (Adaptive.request ctrl (Workload.next_op wl tree))
                done);
            ("cat-shrink", n0, Adaptive.granted ctrl, Adaptive.moves ctrl, tree)
        | `Deep ->
            let n0 = 1 lsl 20 in
            let m = 32 in
            let tree, ctrl, wl =
              phase row "e14/build" (fun () ->
                  let rng = Rng.create ~seed:205 in
                  let tree = Workload.Shape.build rng (Workload.Shape.Path n0) in
                  let u = n0 + m + 64 in
                  let ctrl =
                    Central.create ~reject_mode:Types.Report ?telemetry:row.sink
                      ~params:(Params.make ~m ~w:(m / 2) ~u)
                      ~tree ()
                  in
                  let wl =
                    Workload.make ~seed:206 ~deep_bias:true
                      ~mix:Workload.Mix.grow_only ()
                  in
                  (tree, ctrl, wl))
            in
            phase row "e14/drive" (fun () ->
                (* every grant climbs ~n0 hops: the adversarial row *)
                let exhausted = ref false in
                while not !exhausted do
                  match Central.request ctrl (Workload.next_op wl tree) with
                  | Types.Granted -> ()
                  | Types.Exhausted -> exhausted := true
                  | Types.Rejected -> assert false  (* dynlint: allow unsafe -- base controller runs in report mode and never rejects *)
                done);
            ("deep-path", n0, Central.granted ctrl, Central.moves ctrl, tree)
      in
      let dfs, sub =
        phase row "e14/verify" (fun () ->
            Dtree.check tree;
            let dfs = Dtree.fold_dfs tree ~init:0 ~f:(fun acc _ -> acc + 1) in
            (dfs, Dtree.subtree_size tree (Dtree.root tree)))
      in
      let audit_ok = dfs = Dtree.size tree && sub = Dtree.size tree in
      note row ~moves ();
      printf row "%14s %9d %9d %14s %9d %9d %6s@." shape_name n0 granted
        (Stats.pretty_int moves) (Dtree.size tree) dfs
        (if audit_ok then "ok" else "FAIL"))

(* ------------------------------------------------------------------ *)
(* E15: scale - the message-bound hot path at 10^5 nodes               *)

let e15 ctx =
  section ctx "E15" "scale: message-bound distributed estimation on a 10^5-node tree";
  printf ctx
    "the send path as the bottleneck: a subtree estimator rides the@.";
  printf ctx
    "distributed controller's agents over a random 10^5-node tree under@.";
  printf ctx
    "churn, millions of messages through the interned-tag, pooled-cell@.";
  printf ctx "delivery path@.@.";
  printf ctx "%14s %9s %9s %14s %9s %9s@." "shape" "n0" "changes" "messages"
    "epochs" "final n";
  rows ctx [ (100_000, 125_000) ] (fun row (n0, requests) ->
      let tree, net, st, wl =
        phase row "e15/build" (fun () ->
            let rng = Rng.create ~seed:211 in
            let tree = Workload.Shape.build rng (Workload.Shape.Random n0) in
            let net =
              Net.create ~seed:212 ?scheduler:row.scheduler ?sink:row.sink
                ~tree ()
            in
            let st = Estimator.Subtree_estimator_dist.create ~net () in
            let wl = Workload.make ~seed:213 ~mix:Workload.Mix.churn () in
            (tree, net, st, wl))
      in
      phase row "e15/drive" (fun () ->
          let submitted = ref 0 in
          let rec pump () =
            if !submitted < requests then begin
              incr submitted;
              Estimator.Subtree_estimator_dist.submit st
                (Workload.next_op wl tree) ~k:pump
            end
          in
          pump ();
          Net.run net);
      note row ~messages:(Net.messages net) ~bits:(Net.total_bits net) ();
      printf row "%14s %9d %9d %14s %9d %9d@." "random-churn" n0 requests
        (Stats.pretty_int (Net.messages net))
        (Estimator.Subtree_estimator_dist.epochs st)
        (Dtree.size tree))

let all = [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
            ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
            ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14);
            ("e15", e15) ]
