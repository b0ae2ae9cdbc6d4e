let log_src = Logs.Src.create "dynnet.controller" ~doc:"(M,W)-controller events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type package_event =
  | Created of Package.t
  | Split of { parent : Package.t; left : Package.t; right : Package.t }
  | Became_static of { pkg : Package.t; node : Dtree.node }
  | Store_moved of { from_ : Dtree.node; to_ : Dtree.node }
  | Granted_at of Dtree.node

type hooks = {
  on_grant : Workload.applied -> unit;
  on_package_down :
    requester:Dtree.node -> from_dist:int -> to_dist:int -> size:int -> unit;
  on_package_event : package_event -> unit;
}

let no_hooks =
  {
    on_grant = (fun _ -> ());
    on_package_down = (fun ~requester:_ ~from_dist:_ ~to_dist:_ ~size:_ -> ());
    on_package_event = (fun _ -> ());
  }

type t = {
  params : Params.t;
  tree : Dtree.t;
  mutable stores : Store.t array;
    (* indexed by node id; [vacant] marks a node with no store *)
  vacant : Store.t;
  alloc : Package.allocator;
  mutable storage : int;
  mutable moves : int;
  mutable granted : int;
  mutable rejected : int;
  mutable wave : bool;
  reject_mode : Types.reject_mode;
  tracker : Domain_tracker.t option;
  hooks : hooks;
  telemetry : Telemetry.Sink.t option;
}

(* The centralized stack has no clock of its own: an event's time is the
   root trace id of the request being answered, plus one. *)
let clock sink = Telemetry.Sink.current_trace sink + 1

let create ?(track_domains = false) ?(reject_mode = Types.Wave) ?(hooks = no_hooks)
    ?telemetry ~params ~tree () =
  {
    params;
    tree;
    stores = [||];
    vacant = Store.empty ();
    alloc = Package.allocator ();
    storage = params.Params.m;
    moves = 0;
    granted = 0;
    rejected = 0;
    wave = false;
    reject_mode;
    tracker =
      (if track_domains then
         Some
           (Domain_tracker.create ?telemetry
              ?clock:(Option.map (fun s () -> clock s) telemetry)
              ~params ~tree ())
       else None);
    hooks;
    telemetry;
  }

let emit t kind =
  match t.telemetry with
  | None -> ()
  | Some s -> Telemetry.Sink.event s ~time:(clock s) kind

let with_metrics t f =
  match t.telemetry with None -> () | Some s -> f (Telemetry.Sink.metrics s)

(* The store of [v], or [t.vacant] when [v] has none: a bounds check and
   one array read, the whole cost of a climb hop's lookup. *)
let find_store t v = if v < Array.length t.stores then t.stores.(v) else t.vacant
  [@@dynlint.zero_alloc]

(* First touch of [v]: grow the column by doubling so that slot [v]
   exists, and mint its store. *)
let install t v =
  if v >= Array.length t.stores then begin
    let cap = max 64 (max (2 * Array.length t.stores) (v + 1)) in
    let bigger = Array.make cap t.vacant in
    Array.blit t.stores 0 bigger 0 (Array.length t.stores);
    t.stores <- bigger
  end;
  let s = Store.empty () in
  t.stores.(v) <- s;
  s

let store t v =
  let s = find_store t v in
  if s != t.vacant then s
  else
    (* dynlint: allow zero-alloc — a node's first touch mints its store *)
    install t v
  [@@dynlint.zero_alloc]

(* Fold over the node ids holding a store, in ascending order. *)
let fold_slots t ~init ~f =
  let acc = ref init in
  Array.iteri (fun v s -> if s != t.vacant then acc := f !acc v s) t.stores;
  !acc

let moves t = t.moves
let granted t = t.granted
let rejected t = t.rejected
let storage t = t.storage

let leftover t = fold_slots t ~init:t.storage ~f:(fun acc _ s -> acc + Store.permits s)

let wave_done t = t.wave

let fold_stores t ~init ~f =
  fold_slots t ~init ~f:(fun acc v s -> if Store.is_empty s then acc else f acc v s)

let check_domains t =
  match t.tracker with
  | None -> invalid_arg "Central.check_domains: created without track_domains"
  | Some tr -> Domain_tracker.check tr

let with_tracker t f = match t.tracker with None -> () | Some tr -> f tr

let record_wave sink tree =
  Telemetry.Sink.event sink ~time:(clock sink)
    (Telemetry.Event.Reject_wave { ctrl = "central"; node = Dtree.root tree });
  Telemetry.Metrics.inc
    (Telemetry.Metrics.counter (Telemetry.Sink.metrics sink) "ctrl_reject_waves_total")

(* Broadcast the reject wave: one reject package per live node, delivered by
   splitting along tree edges — one move per node (Lemma 3.3 charges at most
   U in total for rejects). *)
let reject_wave t =
  if not t.wave then begin
    t.wave <- true;
    Log.debug (fun m ->
        m "reject wave: granted %d of M=%d (leftover %d) over %d nodes" t.granted
          t.params.Params.m (leftover t) (Dtree.size t.tree));
    Dtree.iter_nodes t.tree ~f:(fun v -> Store.set_rejecting (store t v));
    t.moves <- t.moves + Dtree.size t.tree;
    Option.iter (fun s -> record_wave s t.tree) t.telemetry
  end

(* Apply a granted topological change. A deleted node first moves its
   packages (one move for the whole set) to its parent; domains are updated
   per Cases 3-5 of Section 3.2. *)
let apply_event t op =
  (* For removals, the deleted node's packages move to its parent first
     (item 2): one move for the whole set. *)
  (match op with
  | Workload.Remove_leaf v | Workload.Remove_internal v ->
      let s = store t v in
      (if not (Store.is_empty s) then
         match Dtree.parent t.tree v with
         | None -> assert false  (* dynlint: allow unsafe -- removed nodes are never the root, so a parent exists *)
         | Some p ->
             with_tracker t (fun tr ->
                 List.iter (fun pkg -> Domain_tracker.host_moved tr pkg p) (Store.mobiles s));
             Store.absorb (store t p) s;
             t.hooks.on_package_event (Store_moved { from_ = v; to_ = p });
             emit t (Telemetry.Event.Package_join { ctrl = "central"; from_ = v; to_ = p });
             t.moves <- t.moves + 1);
      t.stores.(v) <- t.vacant
  | Workload.Add_leaf _ | Workload.Add_internal _ | Workload.Non_topological _ -> ());
  let info = Workload.apply_info t.tree op in
  (match info with
  | Workload.Internal_added { below; fresh } ->
      with_tracker t (fun tr -> Domain_tracker.on_add_internal tr ~new_node:fresh ~child:below)
  | Workload.Leaf_added _ | Workload.Leaf_removed _ | Workload.Internal_removed _
  | Workload.Event_occurred _ ->
      ());
  t.hooks.on_grant info

(* Distribute package [pkg] (level [k], currently at distance [d_w] above the
   requester [u]) down the path, per the corrected Proc of DESIGN.md: a
   level-k package lands at u_{k-1} (distance 3*2^(k-2)*psi), splits, leaves
   one level-(k-1) package there and recurses on the other. *)
let rec proc t ~u pkg ~d_w =
  let k = pkg.Package.level in
  if k = 0 then begin
    t.moves <- t.moves + d_w;
    t.hooks.on_package_down ~requester:u ~from_dist:d_w ~to_dist:0
      ~size:pkg.Package.size;
    with_tracker t (fun tr -> Domain_tracker.cancel tr pkg);
    t.hooks.on_package_event (Became_static { pkg; node = u });
    emit t
      (Telemetry.Event.Package_static
         { ctrl = "central"; node = u; size = pkg.Package.size });
    Store.add_static (store t u) pkg.Package.size
  end
  else begin
    let td = Params.landing_distance t.params (k - 1) in
    assert (td < d_w);
    let target =
      match Dtree.ancestor_at t.tree u td with
      | Some x -> x
      | None -> assert false  (* dynlint: allow unsafe -- landing distance td < d_w <= depth u, so the ancestor exists *)
    in
    t.moves <- t.moves + (d_w - td);
    t.hooks.on_package_down ~requester:u ~from_dist:d_w ~to_dist:td
      ~size:pkg.Package.size;
    with_tracker t (fun tr -> Domain_tracker.cancel tr pkg);
    let p1, p2 = Package.split t.alloc pkg in
    t.hooks.on_package_event (Split { parent = pkg; left = p1; right = p2 });
    emit t (Telemetry.Event.Package_split { ctrl = "central"; level = k });
    with_metrics t (fun m ->
        Telemetry.Metrics.inc
          (Telemetry.Metrics.counter m
             ~labels:[ ("level", string_of_int k) ]
             "pkg_splits_total"));
    Store.add_mobile (store t target) p1;
    with_tracker t (fun tr -> Domain_tracker.assign tr p1 ~host:target ~requester:u);
    proc t ~u p2 ~d_w:td
  end

let grant t u op =
  Store.take_static (store t u);
  t.hooks.on_package_event (Granted_at u);
  t.granted <- t.granted + 1;
  apply_event t op

(* Filler lookup that leaves absent stores absent: a climb over a 10^6-node
   path must not populate the store column with one empty record per hop. *)
let take_filler t w ~d =
  let s = find_store t w in
  if s == t.vacant then None
  else
    match Store.find_filler s ~params:t.params ~distance:d with
    | Some pkg as found ->
        Store.remove_mobile s pkg;
        found
    | None -> None

(* Climb from [u] towards the root looking for the closest filler node.
   [parent_id] keeps the per-hop loop allocation-free. *)
let rec climb t ~u w ~d =
  match take_filler t w ~d with
  | Some pkg ->
      proc t ~u pkg ~d_w:d;
      Ok ()
  | None -> (
      match Dtree.parent_id t.tree w with
      | parent when parent >= 0 -> climb t ~u parent ~d:(d + 1)
      | _ ->
          (* w is the root and not a filler: item 3b. *)
          let j = Params.creation_level t.params d in
          let need = Params.mobile_size t.params j in
          if t.storage < need then Error `Exhausted
          else begin
            t.storage <- t.storage - need;
            let pkg = Package.create t.alloc ~params:t.params ~level:j in
            t.hooks.on_package_event (Created pkg);
            emit t
              (Telemetry.Event.Package_created { ctrl = "central"; level = j; size = need });
            proc t ~u pkg ~d_w:d;
            Ok ()
          end)

let serve t op =
  let u = Workload.request_site t.tree op in
  let s = store t u in
  if Store.rejecting s then begin
    t.rejected <- t.rejected + 1;
    Types.Rejected
  end
  else if Store.static s > 0 then begin
    grant t u op;
    Types.Granted
  end
  else
    match climb t ~u u ~d:0 with
    | Ok () ->
        grant t u op;
        Types.Granted
    | Error `Exhausted -> (
        match t.reject_mode with
        | Types.Report -> Types.Exhausted
        | Types.Wave ->
            reject_wave t;
            t.rejected <- t.rejected + 1;
            Types.Rejected)

(* The outermost layer of the centralized stack answers the caller, so it
   alone records the request: it roots a causal trace, whose id sets the
   [clock] every layer below stamps its events with, and records the permit
   span and the request and move counters. A layer below finds the trace
   ambient and serves. (The distributed controllers never reach here, their
   chains root at [Net.schedule].) *)
let answer sink tree op ~moves serve =
  if Telemetry.Sink.current_span sink >= 0 then serve ()
  else begin
    let id = Telemetry.Sink.fresh_id sink in
    Telemetry.Sink.set_ambient sink ~trace:id ~span:id;
    let aid = clock sink and node = Workload.request_site tree op and before = moves () in
    let outcome = serve () in
    let outcome_s = Types.outcome_name outcome in
    Telemetry.Sink.event sink ~time:aid
      (Telemetry.Event.Permit_span
         { ctrl = "central"; node; aid; outcome = outcome_s; submitted = aid; latency = 0 });
    Telemetry.Sink.clear_ambient sink;
    let m = Telemetry.Sink.metrics sink in
    Telemetry.Metrics.inc
      (Telemetry.Metrics.counter m
         ~labels:[ ("ctrl", "central"); ("outcome", outcome_s) ]
         "ctrl_requests_total");
    Telemetry.Metrics.add (Telemetry.Metrics.counter m "ctrl_moves_total") (moves () - before);
    outcome
  end

let request t op =
  if not (Workload.valid_op t.tree op) then
    invalid_arg (Format.asprintf "Central.request: invalid op %a" Workload.pp_op op);
  match t.telemetry with
  | None -> serve t op
  | Some sink -> answer sink t.tree op ~moves:(fun () -> t.moves) (fun () -> serve t op)
