type stats = {
  submitted : int;
  granted : int;
  rejected : int;
  unanswered : int;
  messages : int;
  total_bits : int;
  max_message_bits : int;
  sim_time : int;
  final_size : int;
  max_wb_bits : int;
  discipline : string;
  reorders : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "submitted=%d granted=%d rejected=%d unanswered=%d messages=%d max_bits=%d time=%d n=%d \
     scheduler=%s reorders=%d"
    s.submitted s.granted s.rejected s.unanswered s.messages s.max_message_bits
    s.sim_time s.final_size s.discipline s.reorders

let drive ?(concurrency = 8) ~net ~requests ~submit ~on_answer wl =
  let tree = Net.tree net in
  (* In-flight requests touch disjoint nodes ([next_op_avoiding] never
     draws a reserved one), so a set is enough. *)
  let reserved : (Dtree.node, unit) Hashtbl.t = Hashtbl.create 16 in
  let forbidden = Hashtbl.mem reserved in
  let reserve v = Hashtbl.replace reserved v () in
  let release = Hashtbl.remove reserved in
  let submitted = ref 0 in
  let rec pump () =
    if !submitted < requests then
      match Workload.next_op_avoiding wl tree ~forbidden with
      | None ->
          (* everything currently reserved by in-flight requests: retry *)
          Net.schedule net ~delay:3 pump
      | Some op ->
          incr submitted;
          let nodes =
            List.sort_uniq Int.compare
              (Workload.request_site tree op :: Workload.touched tree op)
          in
          List.iter reserve nodes;
          submit op ~k:(fun answer ->
              List.iter release nodes;
              on_answer answer;
              pump ())
  in
  for _ = 1 to concurrency do
    pump ()
  done

let run_on ?(seed = 0xD1CE) ?concurrency ~net ~mix ~requests ~submit () =
  let granted = ref 0 and rejected = ref 0 and unanswered = ref 0 in
  drive ?concurrency ~net ~requests ~submit
    ~on_answer:(function
      | Types.Granted -> incr granted
      | Types.Rejected -> incr rejected
      | Types.Exhausted -> incr unanswered)
    (Workload.make ~seed:(seed + 7) ~mix ());
  Net.run net;
  (!granted, !rejected, !unanswered)

let run ?(seed = 0xD1CE) ?(max_delay = 8) ?(concurrency = 8) ?config ?scheduler ?sink
    ~shape ~mix ~m ~w ~requests () =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng shape in
  let u = Dtree.size tree + requests in
  let net = Net.create ~seed:(seed + 1) ~max_delay ?scheduler ?sink ~tree () in
  let params = Params.make ~m ~w:(max 1 w) ~u in
  let d = Dist.create ?config ~params ~net () in
  let granted, rejected, unanswered =
    run_on ~seed ~concurrency ~net ~mix ~requests ~submit:(Dist.submit d) ()
  in
  {
    submitted = requests;
    granted;
    rejected;
    unanswered;
    messages = Net.messages net;
    total_bits = Net.total_bits net;
    max_message_bits = Net.max_message_bits net;
    sim_time = Net.now net;
    final_size = Dtree.size tree;
    max_wb_bits = Dist.max_wb_bits d;
    discipline = Scheduler.name (Net.scheduler net);
    reorders = Net.reorders net;
  }
