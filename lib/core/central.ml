let log_src = Logs.Src.create "dynnet.controller" ~doc:"(M,W)-controller events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type package_event =
  | Created of Package.t
  | Split of {
      parent : Package.t;
      left : Package.t;
      requester : Dtree.node;
      from_dist : int;
      to_dist : int;
    }
  | Became_static of { pkg : Package.t; node : Dtree.node; from_dist : int }
  | Store_moved of { from_ : Dtree.node; to_ : Dtree.node }

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
  lands : Dtree.node array;
    (* [lands.(k)]: the node the current climb passed at landing distance
       [k], where [proc] parks a level-[k] package *)
  mutable stop : Dtree.node;  (* where the current climb stopped *)
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
    lands = Array.make Sys.int_size (-1);
    stop = -1;
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
          Telemetry.Sink.event s ~time:(clock s) (Telemetry.Event.Package_split { ctrl; level })
      | Became_static { pkg; node; _ } ->
          Telemetry.Sink.event s ~time:(clock s)
            (Telemetry.Event.Package_static { ctrl; node; size = pkg.Package.size })
      | Store_moved { from_; to_ } ->
          Telemetry.Sink.event s ~time:(clock s)
            (Telemetry.Event.Package_join { ctrl; from_; to_ }))

(* The store of [v], or [t.vacant] when [v] has none: a bounds check and
   one array read. *)
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
    | Some s ->
        Telemetry.Sink.event s ~time:(clock s)
          (Telemetry.Event.Reject_wave { ctrl = "central"; node = Dtree.root t.tree })
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
   one level-(k-1) package there and recurses on the other. The climb that
   found [pkg] passed every landing node below [d_w] and recorded it. *)
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
    let target = t.lands.(k - 1) in
    t.moves <- t.moves + (d_w - td);
    let left, right = Package.split t.alloc pkg in
    notify t (Split { parent = pkg; left; requester = u; from_dist = d_w; to_dist = td });
    Store.add_mobile (store t target) left;
    proc t ~u right ~d_w:td
  end

let grant t u op =
  Store.take_static (store t u);
  t.granted <- t.granted + 1;
  apply_event t op

(* Climb from [u] to the closest filler or to the root; return the
   distance where it stopped, with the node in [t.stop]. The climb runs
   one distance band at a time: band [j] ends at distance [2^(j+1) psi],
   and its fillers host a level-[j] package; past level [max_level + 1]
   there are none, as [Params.filler_level_index] says. Band [j]'s landing
   distance, where the node passed goes to [t.lands.(j)], doubles from
   band to band like its end. The loop makes no call: a hop loads the
   store's level mask (a node past the column has no store, and the
   vacant store hosts nothing) and the parent column in place, so its
   state stays in registers. *)
let climb t u =
  let p = t.params in
  let landing0 = Params.landing_distance p 0 in
  let parents = Dtree.parent_column t.tree in
  (* no call from here to the end of the loop, so nothing it updates is
     live across one and has to live on the stack *)
  let stores = t.stores and lands = t.lands and top = p.Params.max_level + 1 in
  let w = ref u and d = ref 0 and j = ref 0 and bit = ref 1 in
  let landing = ref landing0 and hi = ref (2 * p.Params.psi) in
  while
    let v = !w in
    (v >= Array.length stores || stores.(v).Store.mask land !bit = 0) && parents.(v) >= 0
  do
    let v = !w in
    if !d = !landing then lands.(!j) <- v;
    if !d = !hi then begin
      incr j;
      bit := if !j <= top then 1 lsl !j else 0;
      landing := 2 * !landing;
      hi := 2 * !hi
    end;
    w := parents.(v);
    incr d
  done;
  let v = !w and dist = !d in
  (* a dead node's parent is cleared, so only the root may end a climb
     without a filler *)
  if parents.(v) < 0 && v <> Dtree.root t.tree then
    invalid_arg (Printf.sprintf "Central: node %d is not live" v);
  t.stop <- v;
  dist
  [@@dynlint.zero_alloc]

(* GrantOrReject's item 3: take the closest filler's package, or have the
   root create one, and carry it down to [u]. *)
let fill t u =
  let d = climb t u in
  let s = find_store t t.stop in
  let j = Params.filler_level_index t.params d in
  if j >= 0 && Store.hosts s j then begin
    proc t ~u (Store.take s j) ~d_w:d;
    Ok ()
  end
  else
    (* the climb stopped at the root, which is not a filler: item 3b *)
    let j = Params.creation_level t.params d in
    let need = Params.mobile_size t.params j in
    if t.storage < need then Error `Exhausted
    else begin
      t.storage <- t.storage - need;
      let pkg = Package.create t.alloc ~params:t.params ~level:j in
      notify t (Created pkg);
      proc t ~u pkg ~d_w:d;
      Ok ()
    end

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
    match fill t u with
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
   span with the answer's moves. A layer below finds the trace ambient and
   serves. (The distributed controllers never reach here, their chains root
   at [Net.schedule].) *)
let answer sink tree op ~moves serve =
  if Telemetry.Sink.current_span sink >= 0 then serve ()
  else begin
    let id = Telemetry.Sink.fresh_id sink in
    Telemetry.Sink.set_ambient sink ~trace:id ~span:id;
    let aid = clock sink and node = Workload.request_site tree op and before = moves () in
    let outcome = serve () in
    Telemetry.Sink.event sink ~time:aid
      (Telemetry.Event.Permit_span
         {
           ctrl = "central";
           node;
           aid;
           outcome = Types.outcome_name outcome;
           submitted = aid;
           latency = 0;
           moves = moves () - before;
         });
    Telemetry.Sink.clear_ambient sink;
    outcome
  end

let request t op =
  if not (Workload.valid_op t.tree op) then
    invalid_arg (Format.asprintf "Central.request: invalid op %a" Workload.pp_op op);
  match t.telemetry with
  | None -> serve t op
  | Some sink -> answer sink t.tree op ~moves:(fun () -> t.moves) (fun () -> serve t op)
