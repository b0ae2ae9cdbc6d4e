type config = {
  exhaustion : [ `Wave | `Hold ];
  name : string;
  on_permits_down : node:Dtree.node -> size:int -> unit;
}

let default_config =
  {
    exhaustion = `Wave;
    name = "ctrl";
    on_permits_down = (fun ~node:_ ~size:_ -> ());
  }

(* The wire-tag universe as a variant: exhaustiveness of [suffix_to_string]
   and the unused-constructor warning make conformance a compiler
   guarantee; what remains for the static (dynlint D8) and runtime
   (test_conformance) checks is this one string boundary, which is why the
   [[@@dynlint.tag_universe]] attribute rides the renderer. *)
type suffix =
  | Agent_down
  | Agent_reject
  | Agent_release
  | Agent_return
  | Agent_unlock
  | Agent_up
  | Reject_wave

let suffix_to_string = function
  | Agent_down -> "agent-down"
  | Agent_reject -> "agent-reject"
  | Agent_release -> "agent-release"
  | Agent_return -> "agent-return"
  | Agent_unlock -> "agent-unlock"
  | Agent_up -> "agent-up"
  | Reject_wave -> "reject-wave"
[@@dynlint.tag_universe]

(* Dense index for the per-controller [Tag.id] array; must enumerate in
   [all_suffixes] order. *)
let suffix_index = function
  | Agent_down -> 0
  | Agent_reject -> 1
  | Agent_release -> 2
  | Agent_return -> 3
  | Agent_unlock -> 4
  | Agent_up -> 5
  | Reject_wave -> 6

let all_suffixes =
  [
    Agent_down;
    Agent_reject;
    Agent_release;
    Agent_return;
    Agent_unlock;
    Agent_up;
    Reject_wave;
  ]

let tag_suffixes = List.map suffix_to_string all_suffixes

(* Per-node whiteboard (Section 4.3.1): package counts per level, the merged
   static permit count, the reject flag, the lock, the lock owner's
   down-pointer, and the FIFO queue of waiting agents. *)
type wb = {
  mobiles : int array;
  mutable static : int;
  mutable reject : bool;
  mutable locked : bool;
  mutable down_child : Dtree.node;
  queue : agent Queue.t;
}

(* The per-hop continuations ([k_up] .. [k_release]) are allocated once at
   agent creation and reused for every hop of the walk: an agent has at
   most one message in flight, so the one closure per direction suffices —
   the per-send closure allocation the hot path used to pay is gone. Of
   the two exhaustion walks only the controller's mode's is made ([k_reject]
   under [`Wave], [k_release] under [`Hold]); the other stays [ignore].
   [pending_from] carries the climb origin from [climb_up] to [k_up]. *)
and agent = {
  aid : int;
  op : Workload.op;
  k : Types.outcome -> unit;
  t0 : int;  (* simulated submission time, for permit-span telemetry *)
  mutable origin : Dtree.node;
  mutable distance : int;  (* taxi counter: hops from origin *)
  mutable top : int;  (* taxi counter: topmost distance reached *)
  mutable bag : int;  (* level of the carried package; -1 = none *)
  mutable came_from : Dtree.node;  (* child we climbed from; -1 at origin *)
  mutable pending_from : Dtree.node;
  mutable k_up : Dtree.node -> unit;
  mutable k_down : Dtree.node -> unit;
  mutable k_return : Dtree.node -> unit;
  mutable k_unlock : Dtree.node -> unit;
  mutable k_reject : Dtree.node -> unit;
  mutable k_release : Dtree.node -> unit;
}

type t = {
  params : Params.t;
  net : Net.t;
  config : config;
  mutable wbs : wb array;
    (* indexed by node id; [blank] marks a node with no whiteboard *)
  blank : wb;
  tag_ids : Tag.id array;
    (* indexed by [suffix_index]; interned once at [create] so a send is
       an array read, no string join or hash per message *)
  mutable k_flood : Dtree.node -> unit;
    (* the reject-wave delivery continuation, allocated once per controller *)
  mutable storage : int;
  mutable granted : int;
  mutable rejected : int;
  mutable outstanding : int;
  mutable wave : bool;
  mutable next_aid : int;
  mutable nmax : int;  (* largest live size seen: the paper's N *)
  mutable wb_bits_max : int;
}

let tree t = Net.tree t.net

let fresh_wb params =
  {
    mobiles = Array.make (params.Params.max_level + 3) 0;
    static = 0;
    reject = false;
    locked = false;
    down_child = -1;
    queue = Queue.create ();
  }

(* The whiteboard of [v], or [t.blank] when [v] has none. *)
let find_wb t v = if v < Array.length t.wbs then t.wbs.(v) else t.blank
  [@@dynlint.zero_alloc]

(* First touch of [v]: grow the column by doubling so that slot [v] exists,
   and mint its whiteboard. *)
let install t v =
  if v >= Array.length t.wbs then begin
    let cap = max 64 (max (2 * Array.length t.wbs) (v + 1)) in
    let bigger = Array.make cap t.blank in
    Array.blit t.wbs 0 bigger 0 (Array.length t.wbs);
    t.wbs <- bigger
  end;
  let w = fresh_wb t.params in
  t.wbs.(v) <- w;
  w

(* Every agent hop reads a whiteboard: on a hit, a bounds check and one
   array read. *)
let wb t v =
  let w = find_wb t v in
  if w != t.blank then w
  else
    (* dynlint: allow zero-alloc — a node's first touch mints its whiteboard *)
    install t v
  [@@dynlint.zero_alloc]

(* Fold over the node ids holding a whiteboard, in ascending order. *)
let fold_wbs t ~init ~f =
  let acc = ref init in
  Array.iteri (fun v b -> if b != t.blank then acc := f !acc v b) t.wbs;
  !acc

let log_n t = Stats.ceil_log2 (max 2 t.nmax)
let log_u t = Stats.ceil_log2 (max 2 t.params.Params.u)

(* Whiteboard size under the encoding of Claim 4.8. *)
let wb_bits t v =
  let b = find_wb t v in
  if b == t.blank then 0
  else
    let levels_present = Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 b.mobiles in
    let static_bits =
      if b.static > 0 then Stats.ceil_log2 (max 2 (t.params.Params.m + 1)) else 0
    in
    (levels_present * log_u t)
    + static_bits
    + (Queue.length b.queue * log_n t)
    + log_n t (* down pointer *)
    + 2 (* lock and reject flags *)

let touch_mem t v = t.wb_bits_max <- max t.wb_bits_max (wb_bits t v)

(* O(log N)-bit agent message: two distance counters, the bag level, a phase
   tag and the request descriptor. *)
let agent_bits t =
  (2 * log_n t) + (Stats.ceil_log2 (t.params.Params.max_level + 2) + 1) + 3 + (log_n t + 3)

let reject_bits t = log_n t

let tag t s = t.tag_ids.(suffix_index s)
let tag_universe ~name = List.map (fun s -> name ^ "-" ^ s) tag_suffixes
let tags t = tag_universe ~name:t.config.name

(* ------------------------------------------------------------------ *)
(* Reject wave                                                         *)

let flood_reject t v =
  Dtree.iter_children (tree t) v ~f:(fun c ->
      Net.send_to t.net ~src:v ~dst:c ~tag:(tag t Reject_wave)
        ~bits:(reject_bits t) t.k_flood)

let start_wave t r =
  if not t.wave then begin
    t.wave <- true;
    Central.Log.debug (fun m ->
        m "[%s] distributed reject wave from node %d: granted %d of M=%d"
          t.config.name r t.granted t.params.Params.m);
    (match Net.sink t.net with
    | None -> ()
    | Some s -> Central.record_wave s ~time:(Net.now t.net) ~ctrl:t.config.name ~node:r);
    let b = wb t r in
    b.reject <- true;
    touch_mem t r;
    flood_reject t r
  end

(* ------------------------------------------------------------------ *)
(* Graceful application of granted topological changes                 *)

let can_apply t op =
  let live v = Dtree.live (tree t) v in
  match op with
  | Workload.Add_leaf v | Workload.Non_topological v -> live v
  | Workload.Add_internal v -> live v && not (wb t v).locked
  | Workload.Remove_leaf v | Workload.Remove_internal v ->
      live v && (not (wb t v).locked) && Queue.is_empty (wb t v).queue

let absorb t ~parent ~child =
  let cb = find_wb t child in
  if cb == t.blank then false
  else begin
    assert (Queue.is_empty cb.queue);
    let pb = wb t parent in
    Array.iteri (fun i c -> pb.mobiles.(i) <- pb.mobiles.(i) + c) cb.mobiles;
    pb.static <- pb.static + cb.static;
    let had_reject = cb.reject in
    pb.reject <- pb.reject || cb.reject;
    t.wbs.(child) <- t.blank;
    touch_mem t parent;
    (match Net.sink t.net with
    | None -> ()
    | Some s ->
        Telemetry.Sink.event s ~time:(Net.now t.net)
          (Telemetry.Event.Package_join { ctrl = t.config.name; from_ = child; to_ = parent }));
    had_reject
  end

let note_applied t info =
  t.nmax <- max t.nmax (Dtree.size (tree t));
  match info with
  | Workload.Event_occurred _ -> ()
  | Workload.Leaf_added { parent; leaf } ->
      if (wb t parent).reject then begin
        (wb t leaf).reject <- true;
        touch_mem t leaf
      end
  | Workload.Internal_added { below; fresh } ->
      if (wb t below).reject then begin
        (wb t fresh).reject <- true;
        touch_mem t fresh
      end
  | Workload.Leaf_removed { node; parent } -> ignore (absorb t ~parent ~child:node)
  | Workload.Internal_removed { node; parent; children } ->
      let had_reject = absorb t ~parent ~child:node in
      (* Children adopted after the wave passed would miss the reject
         package: re-flood them. *)
      if had_reject then
        List.iter
          (fun c ->
            Net.send_to t.net ~src:parent ~dst:c ~tag:(tag t Reject_wave)
              ~bits:(reject_bits t) t.k_flood)
          children

let ready ?partner t op =
  can_apply t op && match partner with None -> true | Some p -> can_apply p op

let commit ?partner t op =
  let info = Workload.apply_info (tree t) op in
  (match info with
  | Workload.Leaf_removed { node; parent } | Workload.Internal_removed { node; parent; _ } ->
      Net.node_deleted t.net node ~parent
  | Workload.Leaf_added _ | Workload.Internal_added _ | Workload.Event_occurred _ -> ());
  note_applied t info;
  (match partner with None -> () | Some p -> note_applied p info);
  info

(* The first attempt allocates nothing; a blocked change makes one [retry]
   closure, which polls every 2 ticks and counts as outstanding until the
   change applies. *)
let apply ?partner t op ~k =
  if ready ?partner t op then k (commit ?partner t op)
  else begin
    t.outstanding <- t.outstanding + 1;
    let rec retry () =
      if ready ?partner t op then begin
        t.outstanding <- t.outstanding - 1;
        k (commit ?partner t op)
      end
      else Net.schedule t.net ~delay:2 retry
    in
    Net.schedule t.net ~delay:2 retry
  end

(* ------------------------------------------------------------------ *)
(* The request agent                                                   *)

let record_answer net ~ctrl ~node ~aid ~submitted outcome =
  match Net.sink net with
  | None -> ()
  | Some s ->
      let now = Net.now net in
      let outcome_s = Types.outcome_name outcome in
      Telemetry.Sink.event s ~time:now
        (Telemetry.Event.Permit_span
           { ctrl; node; aid; outcome = outcome_s; submitted; latency = now - submitted });
      let m = Telemetry.Sink.metrics s in
      Telemetry.Metrics.inc
        (Telemetry.Metrics.counter m
           ~labels:[ ("ctrl", ctrl); ("outcome", outcome_s) ]
           "ctrl_requests_total");
      Telemetry.Metrics.observe
        (Telemetry.Metrics.histogram m ~labels:[ ("ctrl", ctrl) ] "permit_latency_time")
        (now - submitted)

let finish t a outcome =
  t.outstanding <- t.outstanding - 1;
  (match outcome with
  | Types.Rejected -> t.rejected <- t.rejected + 1
  | Types.Granted | Types.Exhausted -> ());
  record_answer t.net ~ctrl:t.config.name ~node:a.origin ~aid:a.aid ~submitted:a.t0 outcome;
  a.k outcome

(* Unlock [v] and, FIFO, resume waiting agents (local computation takes
   zero time: dequeued agents act before any new arrival). A resumed agent
   normally re-locks [v] and the drain stops; but an agent that meets a
   reject package walks away without locking, so we keep draining until the
   lock is taken or the queue empties — otherwise agents strand forever in
   the queue of an unlocked node. *)
let rec unlock t v =
  let b = wb t v in
  assert b.locked;
  b.locked <- false;
  b.down_child <- -1;
  drain_queue t v

and drain_queue t v =
  let b = wb t v in
  if (not b.locked) && not (Queue.is_empty b.queue) then begin
    let a = Queue.pop b.queue in
    touch_mem t v;
    (if a.distance = 0 then enter_origin t a v else arrive t a v);
    drain_queue t v
  end

(* A request agent is created at its origin (Section 4.3.1, item 1). *)
and enter_origin t a u =
  let b = wb t u in
  if b.reject then finish t a Types.Rejected
  else if b.locked then begin
    Queue.push a b.queue;
    touch_mem t u
  end
  else begin
    b.locked <- true;
    b.down_child <- -1;
    if b.static > 0 then begin
      (* item 2: grant from the local static package *)
      b.static <- b.static - 1;
      t.granted <- t.granted + 1;
      touch_mem t u;
      unlock t u;
      conclude_grant t a
    end
    else if b.mobiles.(0) > 0 then begin
      (* the origin itself is a filler with respect to itself (j(u) = 0) *)
      b.mobiles.(0) <- b.mobiles.(0) - 1;
      a.bag <- 0;
      touch_mem t u;
      distribute t a u
    end
    else if Dtree.parent_id (tree t) u < 0 then at_root t a u
    else climb_up t a u
  end

and climb_up t a from =
  a.pending_from <- from;
  Net.send_up t.net ~src:from ~tag:(tag t Agent_up) ~bits:(agent_bits t) a.k_up

(* Arrival at a node while climbing (item 3); also used on dequeue. *)
and arrive t a w =
  let b = wb t w in
  if b.reject then reject_walk t a ~at:w ~locked_by_me:false
  else if b.locked then begin
    Queue.push a b.queue;
    touch_mem t w
  end
  else begin
    b.locked <- true;
    b.down_child <- a.came_from;
    let j = Params.filler_level_index t.params a.distance in
    if j >= 0 && b.mobiles.(j) > 0 then begin
      b.mobiles.(j) <- b.mobiles.(j) - 1;
      touch_mem t w;
      a.bag <- j;
      a.top <- max a.top a.distance;
      distribute t a w
    end
    else if Dtree.parent_id (tree t) w < 0 then at_root t a w
    else climb_up t a w
  end

(* item 3c: the agent reached the root and the root is not a filler. *)
and at_root t a r =
  let j = Params.creation_level t.params a.distance in
  let need = Params.mobile_size t.params j in
  if t.storage < need then
    match t.config.exhaustion with
    | `Wave ->
        start_wave t r;
        reject_walk t a ~at:r ~locked_by_me:true
    | `Hold -> release_walk t a ~at:r
  else begin
    t.storage <- t.storage - need;
    a.bag <- j;
    (match Net.sink t.net with
    | None -> ()
    | Some s ->
        Telemetry.Sink.event s ~time:(Net.now t.net)
          (Telemetry.Event.Package_created { ctrl = t.config.name; level = j; size = need }));
    t.config.on_permits_down ~node:r ~size:need;
    distribute t a r
  end

(* item 4 (Proc): carry the package down the locked path, dropping one
   level-(k-1) package at each landing point u_{k-1}. *)
and distribute t a w =
  if a.distance = 0 then begin
    (* the level-0 package becomes static at the origin and one permit is
       granted (items 4 and 2) *)
    assert (a.bag = 0);
    let b = wb t w in
    b.static <- b.static + t.params.Params.phi - 1;
    t.granted <- t.granted + 1;
    a.bag <- -1;
    (match Net.sink t.net with
    | None -> ()
    | Some s ->
        Telemetry.Sink.event s ~time:(Net.now t.net)
          (Telemetry.Event.Package_static
             { ctrl = t.config.name; node = w; size = t.params.Params.phi }));
    touch_mem t w;
    if a.top = 0 then begin
      unlock t w;
      conclude_grant t a
    end
    else return_up t a w
  end
  else begin
    let next = (wb t w).down_child in
    assert (next >= 0);
    Net.send_to t.net ~src:w ~dst:next ~tag:(tag t Agent_down)
      ~bits:(agent_bits t) a.k_down
  end

(* After the grant: climb back to the topmost node ever reached... *)
and return_up t a u =
  Net.send_up t.net ~src:u ~tag:(tag t Agent_return) ~bits:(agent_bits t)
    a.k_return

(* ...then walk down unlocking every node (item 4, last step). *)
and unlock_walk t a ~at =
  let next = (wb t at).down_child in
  unlock t at;
  if a.distance = 0 then conclude_grant t a
  else
    Net.send_to t.net ~src:at ~dst:next ~tag:(tag t Agent_unlock)
      ~bits:(agent_bits t) a.k_unlock

(* item 1b: walk home placing a reject package at every intermediate node,
   unlocking our locked path as we go. *)
and reject_walk t a ~at ~locked_by_me =
  let b = wb t at in
  if not b.reject then begin
    b.reject <- true;
    touch_mem t at
  end;
  let next = if locked_by_me then b.down_child else a.came_from in
  if locked_by_me then unlock t at;
  if a.distance = 0 then finish t a Types.Rejected
  else
    Net.send_to t.net ~src:at ~dst:next ~tag:(tag t Agent_reject)
      ~bits:(agent_bits t) a.k_reject

(* `Hold` exhaustion: release every lock, answer nothing (Observation 2.1:
   the request is queued by the orchestrating layer). *)
and release_walk t a ~at =
  let next = (wb t at).down_child in
  unlock t at;
  if a.distance = 0 then finish t a Types.Exhausted
  else
    Net.send_to t.net ~src:at ~dst:next ~tag:(tag t Agent_release)
      ~bits:(agent_bits t) a.k_release

(* In [`Wave] mode a granted change is answered once it applied; in
   [`Hold] mode applying it is the caller's part. *)
and conclude_grant t a =
  match t.config.exhaustion with
  | `Wave when Workload.is_topological a.op ->
      apply t a.op ~k:(fun _ -> finish t a Types.Granted)
  | `Wave | `Hold -> finish t a Types.Granted

(* Wire up the agent's reusable per-direction continuations (one closure
   each for the whole walk; see the [agent] type comment). *)
let init_agent_ks t a =
  a.k_up <-
    (fun w ->
      a.came_from <- a.pending_from;
      a.distance <- a.distance + 1;
      if a.distance > a.top then a.top <- a.distance;
      arrive t a w);
  a.k_down <-
    (fun x ->
      a.distance <- a.distance - 1;
      t.config.on_permits_down ~node:x
        ~size:(Params.mobile_size t.params (max 0 a.bag));
      if a.bag >= 1 && a.distance = Params.landing_distance t.params (a.bag - 1)
      then begin
        let b = wb t x in
        b.mobiles.(a.bag - 1) <- b.mobiles.(a.bag - 1) + 1;
        (match Net.sink t.net with
        | None -> ()
        | Some s ->
            Telemetry.Sink.event s ~time:(Net.now t.net)
              (Telemetry.Event.Package_split { ctrl = t.config.name; level = a.bag });
            Telemetry.Metrics.inc
              (Telemetry.Metrics.counter (Telemetry.Sink.metrics s)
                 ~labels:[ ("level", string_of_int a.bag) ]
                 "pkg_splits_total"));
        a.bag <- a.bag - 1;
        touch_mem t x
      end;
      distribute t a x);
  a.k_return <-
    (fun w ->
      a.distance <- a.distance + 1;
      if a.distance = a.top then unlock_walk t a ~at:w else return_up t a w);
  a.k_unlock <-
    (fun x ->
      a.distance <- a.distance - 1;
      unlock_walk t a ~at:x);
  match t.config.exhaustion with
  | `Wave ->
      a.k_reject <-
        (fun x ->
          a.distance <- a.distance - 1;
          reject_walk t a ~at:x ~locked_by_me:true)
  | `Hold ->
      a.k_release <-
        (fun x ->
          a.distance <- a.distance - 1;
          release_walk t a ~at:x)

let create ?(config = default_config) ~params ~net () =
  let tag_ids =
    Array.of_list
      (List.map
         (fun s -> Net.intern_tag net (config.name ^ "-" ^ suffix_to_string s))
         all_suffixes)
  in
  let t =
    {
      params;
      net;
      config;
      wbs = [||];
      blank = fresh_wb params;
      tag_ids;
      k_flood = ignore;
      storage = params.Params.m;
      granted = 0;
      rejected = 0;
      outstanding = 0;
      wave = false;
      next_aid = 0;
      nmax = Dtree.size (Net.tree net);
      wb_bits_max = 0;
    }
  in
  t.k_flood <-
    (fun c' ->
      let b = wb t c' in
      if not b.reject then begin
        b.reject <- true;
        touch_mem t c';
        flood_reject t c'
      end);
  t

let submit t op ~k =
  t.outstanding <- t.outstanding + 1;
  let t0 = Net.now t.net in
  Net.schedule t.net ~delay:1 (fun () ->
      let site = Net.resolve t.net (Workload.request_site (tree t) op) in
      let a =
        {
          aid = t.next_aid;
          op;
          k;
          t0;
          origin = site;
          distance = 0;
          top = 0;
          bag = -1;
          came_from = -1;
          pending_from = -1;
          k_up = ignore;
          k_down = ignore;
          k_return = ignore;
          k_unlock = ignore;
          k_reject = ignore;
          k_release = ignore;
        }
      in
      init_agent_ks t a;
      t.next_aid <- t.next_aid + 1;
      enter_origin t a site)

let granted t = t.granted
let rejected t = t.rejected
let outstanding t = t.outstanding
let storage t = t.storage

let leftover t =
  fold_wbs t ~init:t.storage ~f:(fun acc _ b ->
      let mob = ref 0 in
      Array.iteri
        (fun k c -> mob := !mob + (c * Params.mobile_size t.params k))
        b.mobiles;
      acc + b.static + !mob)

let max_wb_bits t = t.wb_bits_max

let locked_count t = fold_wbs t ~init:0 ~f:(fun acc _ b -> if b.locked then acc + 1 else acc)

let check_locks t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let tree = tree t in
  let bad =
    fold_wbs t ~init:None ~f:(fun bad v b ->
        if Option.is_some bad || not b.locked then bad
        else if not (Dtree.live tree v) then Some (v, "locked node is dead")
        else if b.down_child < 0 then None
        else if not (Dtree.live tree b.down_child) then
          Some (v, "down pointer to a dead node")
        else if Dtree.parent tree b.down_child <> Some v then
          Some (v, "down pointer is not a child")
        else None)
  in
  match bad with
  | Some (v, msg) -> err "node %d: %s" v msg
  | None -> Ok ()

(* Ascending node order falls out of walking the column downwards. *)
let snapshot t =
  let acc = ref [] in
  for v = Array.length t.wbs - 1 downto 0 do
    let b = t.wbs.(v) in
    let levels = ref [] in
    for k = Array.length b.mobiles - 1 downto 0 do
      for _ = 1 to b.mobiles.(k) do
        levels := k :: !levels
      done
    done;
    if !levels <> [] || b.static <> 0 then acc := (v, !levels, b.static) :: !acc
  done;
  !acc
