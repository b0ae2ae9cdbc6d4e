let log_src = Logs.Src.create "dynnet.controller" ~doc:"(M,W)-controller events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type package_event =
  | Created of Package.t
  | Split of {
      parent : Package.t;
      left : Package.t;
      right : Package.t;
      requester : Dtree.node;
      from_dist : int;
      to_dist : int;
    }
  | Became_static of { pkg : Package.t; node : Dtree.node; from_dist : int }
  | Store_moved of { from_ : Dtree.node; to_ : Dtree.node }
  | Granted_at of Dtree.node

type hooks = {
  on_grant : Workload.applied -> unit;
  on_package_event : package_event -> unit;
}

let no_hooks = { on_grant = (fun _ -> ()); on_package_event = (fun _ -> ()) }

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
  hooks : hooks;
  telemetry : Telemetry.Sink.t option;
}

(* The centralized stack has no clock of its own: an event's time is the
   root trace id of the request being answered, plus one. *)
let clock sink = Telemetry.Sink.current_trace sink + 1

let create ?(reject_mode = Types.Wave) ?(hooks = no_hooks) ?telemetry ~params ~tree () =
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
    hooks;
    telemetry;
  }

(* The one package life-cycle stream: every event goes to the hook, and
   under a sink its record is built and logged here, nowhere else. *)
let notify t ev =
  t.hooks.on_package_event ev;
  match t.telemetry with
  | None -> ()
  | Some s -> (
      let ctrl = "central" in
      match ev with
      | Created pkg ->
          Telemetry.Sink.event s ~time:(clock s)
            (Telemetry.Event.Package_created
               { ctrl; level = pkg.Package.level; size = pkg.Package.size })
      | Split { parent = { Package.level; _ }; _ } ->
          Telemetry.Sink.event s ~time:(clock s) (Telemetry.Event.Package_split { ctrl; level });
          Telemetry.Metrics.inc
            (Telemetry.Metrics.counter (Telemetry.Sink.metrics s)
               ~labels:[ ("level", string_of_int level) ]
               "pkg_splits_total")
      | Became_static { pkg; node; _ } ->
          Telemetry.Sink.event s ~time:(clock s)
            (Telemetry.Event.Package_static { ctrl; node; size = pkg.Package.size })
      | Store_moved { from_; to_ } ->
          Telemetry.Sink.event s ~time:(clock s)
            (Telemetry.Event.Package_join { ctrl; from_; to_ })
      | Granted_at _ -> ())

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

let record_wave sink ~time ~ctrl ~node =
  Telemetry.Sink.event sink ~time (Telemetry.Event.Reject_wave { ctrl; node });
  Telemetry.Metrics.inc
    (Telemetry.Metrics.counter (Telemetry.Sink.metrics sink) "ctrl_reject_waves_total")

let record_epoch sink ~time ~ctrl ~epoch ~n =
  Telemetry.Sink.event sink ~time (Telemetry.Event.Epoch { ctrl; epoch; n });
  Telemetry.Metrics.inc
    (Telemetry.Metrics.counter (Telemetry.Sink.metrics sink) "ctrl_epochs_total")

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
    match t.telemetry with
    | None -> ()
    | Some s -> record_wave s ~time:(clock s) ~ctrl:"central" ~node:(Dtree.root t.tree)
  end

(* Apply a granted topological change. For removals, the deleted node's
   packages move to its parent first (item 2): one move for the whole
   set. *)
let apply_event t op =
  (match op with
  | Workload.Remove_leaf v | Workload.Remove_internal v ->
      let s = store t v in
      (if not (Store.is_empty s) then
         match Dtree.parent t.tree v with
         | None -> assert false  (* dynlint: allow unsafe -- removed nodes are never the root, so a parent exists *)
         | Some p ->
             Store.absorb (store t p) s;
             notify t (Store_moved { from_ = v; to_ = p });
             t.moves <- t.moves + 1);
      t.stores.(v) <- t.vacant
  | Workload.Add_leaf _ | Workload.Add_internal _ | Workload.Non_topological _ -> ());
  t.hooks.on_grant (Workload.apply_info t.tree op)

(* Distribute package [pkg] (level [k], currently at distance [d_w] above the
   requester [u]) down the path, per the corrected Proc of DESIGN.md: a
   level-k package lands at u_{k-1} (distance 3*2^(k-2)*psi), splits, leaves
   one level-(k-1) package there and recurses on the other. *)
let rec proc t ~u pkg ~d_w =
  let k = pkg.Package.level in
  if k = 0 then begin
    t.moves <- t.moves + d_w;
    notify t (Became_static { pkg; node = u; from_dist = d_w });
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
    let left, right = Package.split t.alloc pkg in
    notify t (Split { parent = pkg; left; right; requester = u; from_dist = d_w; to_dist = td });
    Store.add_mobile (store t target) left;
    proc t ~u right ~d_w:td
  end

let grant t u op =
  Store.take_static (store t u);
  notify t (Granted_at u);
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
            notify t (Created pkg);
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
