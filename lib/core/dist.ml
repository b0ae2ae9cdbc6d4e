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
   guarantee. The renderer's [[@@dynlint.tag_universe]] attribute gives
   dynlint D13 the universe whose every constructor needs a send site and
   a receiver; test_conformance watches the string boundary at runtime. *)
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

(* Per-node whiteboard (Section 4.3.1): the node's packages, static permits
   and reject flag, in the same [Store.t] as [Central]'s, plus what Section
   4 adds: the lock, the lock owner's down-pointer, and the FIFO queue of
   waiting agents. *)
type wb = {
  store : Store.t;
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
  alloc : Package.allocator;
  mutable wbs : wb array;
    (* indexed by node id; [blank] marks a node with no whiteboard *)
  blank : wb;
  mutable spare : wb array;
  mutable spare_n : int;
    (* [spare.(0 .. spare_n - 1)]: wiped whiteboards of the controller this
       one was restarted from, minted again before any is allocated *)
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
  (* Widths read on every hop, cached: [log_n] and [agent_w] follow [nmax]
     ([note_applied] recomputes them when it grows); [log_u] and
     [static_w], the width of a static permit count, are fixed by
     [params]. *)
  mutable log_n : int;
  log_u : int;
  static_w : int;
  mutable agent_w : int;
  mutable wb_bits_max : int;
}

let tree t = Net.tree t.net

let fresh_wb () =
  {
    store = Store.empty ();
    locked = false;
    down_child = -1;
    queue = Queue.create ();
  }

(* The whiteboard of [v], or [t.blank] when [v] has none. *)
let find_wb t v = if v < Array.length t.wbs then t.wbs.(v) else t.blank
  [@@dynlint.zero_alloc]

(* First touch of [v]: grow the column by doubling so that slot [v] exists,
   and mint its whiteboard, a spare one if any is left. *)
let install t v =
  if v >= Array.length t.wbs then begin
    let cap = max 64 (max (2 * Array.length t.wbs) (v + 1)) in
    let bigger = Array.make cap t.blank in
    Array.blit t.wbs 0 bigger 0 (Array.length t.wbs);
    t.wbs <- bigger
  end;
  let w =
    if t.spare_n = 0 then fresh_wb ()
    else begin
      let n = t.spare_n - 1 in
      t.spare_n <- n;
      let w = t.spare.(n) in
      t.spare.(n) <- t.blank;
      w
    end
  in
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

let width n = Stats.ceil_log2 (max 2 n)

(* O(log N)-bit agent message: two distance counters, the bag level, a phase
   tag and the request descriptor. *)
let agent_width params log_n =
  (2 * log_n) + (Stats.ceil_log2 (params.Params.max_level + 2) + 1) + 3 + (log_n + 3)

let rec popcount n = if n = 0 then 0 else 1 + popcount (n land (n - 1))

(* Whiteboard size under the encoding of Claim 4.8: one package count per
   level present. *)
let wb_bits t v =
  let b = find_wb t v in
  if b == t.blank then 0
  else
    let static_bits = if Store.static b.store > 0 then t.static_w else 0 in
    (popcount (Store.mask b.store) * t.log_u)
    + static_bits
    + (Queue.length b.queue * t.log_n)
    + t.log_n (* down pointer *)
    + 2 (* lock and reject flags *)

let touch_mem t v = t.wb_bits_max <- max t.wb_bits_max (wb_bits t v)
let agent_bits t = t.agent_w
let reject_bits t = t.log_n

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
    | Some s ->
        Telemetry.Sink.event s ~time:(Net.now t.net)
          (Telemetry.Event.Reject_wave { ctrl = t.config.name; node = r }));
    Store.set_rejecting (wb t r).store;
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
    let had_reject = Store.rejecting cb.store in
    Store.absorb (wb t parent).store cb.store;
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
  let n = Dtree.size (tree t) in
  if n > t.nmax then begin
    t.nmax <- n;
    t.log_n <- width n;
    t.agent_w <- agent_width t.params t.log_n
  end;
  match info with
  | Workload.Event_occurred _ -> ()
  | Workload.Leaf_added { parent; leaf } ->
      if Store.rejecting (wb t parent).store then begin
        Store.set_rejecting (wb t leaf).store;
        touch_mem t leaf
      end
  | Workload.Internal_added { below; fresh } ->
      if Store.rejecting (wb t below).store then begin
        Store.set_rejecting (wb t fresh).store;
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
      Telemetry.Sink.event s ~time:now
        (Telemetry.Event.Permit_span
           {
             ctrl;
             node;
             aid;
             outcome = Types.outcome_name outcome;
             submitted;
             latency = now - submitted;
             moves = -1;
           })

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
  if Store.rejecting b.store then finish t a Types.Rejected
  else if b.locked then begin
    Queue.push a b.queue;
    touch_mem t u
  end
  else begin
    b.locked <- true;
    b.down_child <- -1;
    if Store.static b.store > 0 then begin
      (* item 2: grant from the local static package *)
      Store.take_static b.store;
      t.granted <- t.granted + 1;
      touch_mem t u;
      unlock t u;
      conclude_grant t a
    end
    else if Store.hosts b.store 0 then begin
      (* the origin itself is a filler with respect to itself (j(u) = 0) *)
      ignore (Store.take b.store 0 : Package.t);
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
  if Store.rejecting b.store then reject_walk t a ~at:w ~locked_by_me:false
  else if b.locked then begin
    Queue.push a b.queue;
    touch_mem t w
  end
  else begin
    b.locked <- true;
    b.down_child <- a.came_from;
    let j = Params.filler_level_index t.params a.distance in
    if j >= 0 && Store.hosts b.store j then begin
      ignore (Store.take b.store j : Package.t);
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
    Store.add_static (wb t w).store (t.params.Params.phi - 1);
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
  if not (Store.rejecting b.store) then begin
    Store.set_rejecting b.store;
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
        Store.add_mobile (wb t x).store
          (Package.create t.alloc ~params:t.params ~level:(a.bag - 1));
        (match Net.sink t.net with
        | None -> ()
        | Some s ->
            Telemetry.Sink.event s ~time:(Net.now t.net)
              (Telemetry.Event.Package_split { ctrl = t.config.name; level = a.bag }));
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

(* A controller whose whiteboard column is [wbs], all [blank], with
   [spare] to mint from. *)
let make ~config ~params ~net ~wbs ~blank ~spare =
  let tag_ids =
    Array.of_list
      (List.map
         (fun s -> Net.intern_tag net (config.name ^ "-" ^ suffix_to_string s))
         all_suffixes)
  in
  let nmax = Dtree.size (Net.tree net) in
  let log_n = width nmax in
  let t =
    {
      params;
      net;
      config;
      alloc = Package.allocator ();
      wbs;
      blank;
      spare;
      spare_n = Array.length spare;
      tag_ids;
      k_flood = ignore;
      storage = params.Params.m;
      granted = 0;
      rejected = 0;
      outstanding = 0;
      wave = false;
      next_aid = 0;
      nmax;
      log_n;
      log_u = width params.Params.u;
      static_w = width (params.Params.m + 1);
      agent_w = agent_width params log_n;
      wb_bits_max = 0;
    }
  in
  t.k_flood <-
    (fun c' ->
      let b = (wb t c').store in
      if not (Store.rejecting b) then begin
        Store.set_rejecting b;
        touch_mem t c';
        flood_reject t c'
      end);
  t

let create ?(config = default_config) ~params ~net () =
  make ~config ~params ~net ~wbs:[||] ~blank:(fresh_wb ()) ~spare:[||]

(* An epoch rotation retires a controller whose whiteboards cover every
   node it touched. Minting a fresh set as the next controller touches the
   same nodes would hold both sets in the heap until the GC reached the
   old one, and how far it had got when the rotation came decided the
   heap's peak; the next controller mints the wiped old set instead. *)
let restart t ~params =
  if t.outstanding > 0 then invalid_arg "Dist.restart: requests outstanding";
  let spare = Array.make (fold_wbs t ~init:t.spare_n ~f:(fun n _ _ -> n + 1)) t.blank in
  Array.blit t.spare 0 spare 0 t.spare_n;
  let n = ref t.spare_n in
  Array.iteri
    (fun v b ->
      if b != t.blank then begin
        Store.clear b.store;
        b.locked <- false;
        b.down_child <- -1;
        Queue.clear b.queue;
        spare.(!n) <- b;
        incr n;
        t.wbs.(v) <- t.blank
      end)
    t.wbs;
  let wbs = t.wbs in
  t.wbs <- [||];
  t.spare <- [||];
  t.spare_n <- 0;
  make ~config:t.config ~params ~net:t.net ~wbs ~blank:t.blank ~spare

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
  fold_wbs t ~init:t.storage ~f:(fun acc _ b -> acc + Store.permits b.store)

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
    let s = t.wbs.(v).store in
    let levels =
      List.sort Int.compare (List.map (fun (p : Package.t) -> p.level) (Store.mobiles s))
    in
    if levels <> [] || Store.static s <> 0 then acc := (v, levels, Store.static s) :: !acc
  done;
  !acc
