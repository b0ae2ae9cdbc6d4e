type discipline =
  | Fifo_link
  | Random_delay
  | Adversarial_lifo of { window : int }
  | Bursty of { period : int }

type link_id = int

(* Links are interned to small ids so the per-send bookkeeping (the FIFO
   bound, the messages in flight, the highest send delivered) is flat array
   indexing with no link value allocated on the hot path. A link packs into
   one int — node ids stay far below 2^31 ([Dtree.ever_created] bounds
   them): [src lsl 32 lor dst lsl 1] for a direct link, [v lsl 1 lor 1] for
   the up-link of [v]. Its key, bits 1 to 31, is the node whose deletion
   remaps it: the destination of a direct link, the sender of an up-link.
   The packed link is looked up in an open-addressed table of ids: a
   Fibonacci hash of the key picks the first slot, linear probing the next,
   and a slot's link is read back through [link_packs], so no link is
   stored twice. Hashing the key alone puts every link keyed on one node in
   the one probe run from that node's home slot, which is all a deletion
   reads.

   A link's state matters only while the link can still affect a decision.
   A link is dead once every message decided on it has been delivered and
   its FIFO bound is not ahead of the clock of the latest [decide]. A dead
   link behaves as one never seen: a later [decide] draws a time above that
   clock, and a later send carries a higher send sequence number than any
   delivery so far. So ids are recycled. Free ids form a list threaded
   through [link_packs]; when an intern finds none, [purge] rebuilds the
   table from the live links and frees the ids of the dead ones, and grows
   the id columns only if more than half of them are still live, to twice
   the live links. So the scheduler holds at most twice the most links live
   at once, and at least [min_ids] ids, and the table needs no tombstones. *)
let pack_direct s d = (s lsl 32) lor (d lsl 1) [@@dynlint.zero_alloc]
let pack_up v = (v lsl 1) lor 1 [@@dynlint.zero_alloc]
let key p = (p lsr 1) land 0x7FFFFFFF [@@dynlint.zero_alloc]

(* 2^63 divided by the golden ratio, rounded to odd: a key times it spreads
   consecutive node ids over the table. *)
let fibonacci = 0x4F1BBCDCBFA53E0B

type t = {
  discipline : discipline;
  mutable link_ids : int array;
      (* open-addressed, power-of-two length, at least twice the ids:
         slot -> id, -1 = empty *)
  mutable link_shift : int;  (* 63 - log2 (Array.length link_ids) *)
  mutable link_packs : int array;  (* id -> packed link, or the next free id *)
  mutable free : int;
      (* head of the free-id list, -1 = none: the first intern purges the
         fresh columns to fill it *)
  mutable free_n : int;  (* length of the free-id list *)
  mutable fifo_last : int array;
      (* Fifo_link: id -> last scheduled delivery; 0 = none (delivery
         times are always >= 1) *)
  mutable in_flight : int array;  (* id -> messages decided, not delivered *)
  mutable delivered_max : int array;
      (* id -> highest send sequence number delivered, -1 = none *)
  mutable clock : int;  (* [now] of the latest [decide] *)
  mutable lifo_rank : int;  (* Adversarial_lifo: strictly decreasing priority *)
  mutable last_prio : int;
      (* priority decided for the most recent [decide]; kept out of the
         return value so [decide] returns a bare int instead of a tuple
         allocated per send *)
}

let default_window = 8
let default_period = 12
let min_ids = 64

let create d =
  (match d with
  | Adversarial_lifo { window } when window < 1 ->
      invalid_arg "Scheduler.create: window must be >= 1"
  | Bursty { period } when period < 1 ->
      invalid_arg "Scheduler.create: period must be >= 1"
  | _ -> ());
  {
    discipline = d;
    link_ids = Array.make (2 * min_ids) (-1);
    link_shift = 63 - 7;
    link_packs = Array.make min_ids 0;
    free = -1;
    free_n = 0;
    fifo_last = Array.make min_ids 0;
    in_flight = Array.make min_ids 0;
    delivered_max = Array.make min_ids (-1);
    clock = 0;
    lifo_rank = 0;
    last_prio = 0;
  }

let discipline t = t.discipline

let home_slot t k = (k * fibonacci) lsr t.link_shift [@@dynlint.zero_alloc]

(* The slot holding [p]'s id, or the empty slot where it belongs. The load
   stays at most 1/2, so an empty slot always ends the walk. [p] is typed
   so that [=] is an int compare, not the polymorphic [compare_val]. *)
let rec probe ids packs (p : int) i =
  let id = ids.(i) in
  if id < 0 || packs.(id) = p then i
  else probe ids packs p ((i + 1) land (Array.length ids - 1))
  [@@dynlint.zero_alloc]

let live t id = t.in_flight.(id) > 0 || t.fifo_last.(id) > t.clock

let grow t n cap =
  let column a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.link_packs <- column t.link_packs 0;
  t.fifo_last <- column t.fifo_last 0;
  t.in_flight <- column t.in_flight 0;
  t.delivered_max <- column t.delivered_max (-1);
  if Array.length t.link_ids < 2 * cap then begin
    let slots = ref (Array.length t.link_ids) in
    while !slots < 2 * cap do
      slots := 2 * !slots;
      t.link_shift <- t.link_shift - 1
    done;
    t.link_ids <- Array.make !slots (-1)
  end

(* Rebuild the table from the live links and the free list from the rest:
   free ids, and those a growth adds, are dead too. Leaves at least as many
   ids free as are live. *)
let purge t =
  let n = Array.length t.link_packs in
  let live_n = ref 0 in
  for id = 0 to n - 1 do
    if live t id then incr live_n
  done;
  if 2 * !live_n > n then grow t n (2 * !live_n);
  Array.fill t.link_ids 0 (Array.length t.link_ids) (-1);
  t.free <- -1;
  t.free_n <- 0;
  for id = Array.length t.link_packs - 1 downto 0 do
    if live t id then begin
      let p = t.link_packs.(id) in
      t.link_ids.(probe t.link_ids t.link_packs p (home_slot t (key p))) <- id
    end
    else begin
      t.fifo_last.(id) <- 0;
      t.delivered_max.(id) <- -1;
      t.link_packs.(id) <- t.free;
      t.free <- id;
      t.free_n <- t.free_n + 1
    end
  done

let intern_miss t p =
  if t.free < 0 then purge t;
  let id = t.free in
  t.free <- t.link_packs.(id);
  t.free_n <- t.free_n - 1;
  t.link_packs.(id) <- p;
  t.link_ids.(probe t.link_ids t.link_packs p (home_slot t (key p))) <- id;
  id

let intern_packed t p k =
  let id = t.link_ids.(probe t.link_ids t.link_packs p (home_slot t k)) in
  if id >= 0 then id
  else
    (* dynlint: allow zero-alloc — cold miss, once per link incarnation *)
    intern_miss t p
  [@@dynlint.zero_alloc]

let intern_direct t ~src ~dst = intern_packed t (pack_direct src dst) dst
  [@@dynlint.zero_alloc]

let intern_up t v = intern_packed t (pack_up v) v [@@dynlint.zero_alloc]
let link_count t = Array.length t.link_packs [@@dynlint.zero_alloc]

let name = function
  | Fifo_link -> "fifo_link"
  | Random_delay -> "random_delay"
  | Adversarial_lifo { window } -> Printf.sprintf "adversarial_lifo:%d" window
  | Bursty { period } -> Printf.sprintf "bursty:%d" period

let of_string s =
  let base, param =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i ->
        let p = String.sub s (i + 1) (String.length s - i - 1) in
        (String.sub s 0 i, int_of_string_opt p)
  in
  let has_colon = String.contains s ':' in
  if has_colon && param = None then
    Error (Printf.sprintf "Scheduler.of_string: bad parameter in %S" s)
  else
    match (base, param) with
    | ("fifo" | "fifo_link"), None -> Ok Fifo_link
    | ("random" | "random_delay"), None -> Ok Random_delay
    | ("lifo" | "adversarial_lifo"), None ->
        Ok (Adversarial_lifo { window = default_window })
    | ("lifo" | "adversarial_lifo"), Some w when w >= 1 ->
        Ok (Adversarial_lifo { window = w })
    | "bursty", None -> Ok (Bursty { period = default_period })
    | "bursty", Some p when p >= 1 -> Ok (Bursty { period = p })
    | _ ->
        Error
          (Printf.sprintf
             "Scheduler.of_string: unknown discipline %S (want \
              fifo_link|random_delay|adversarial_lifo[:window]|bursty[:period])"
             s)

let default () =
  match Sys.getenv_opt "SIMNET_SCHEDULER" with
  | None | Some "" -> Fifo_link
  | Some s -> (
      match of_string s with Ok d -> d | Error msg -> invalid_arg msg)

let defaults =
  [
    Fifo_link;
    Random_delay;
    Adversarial_lifo { window = default_window };
    Bursty { period = default_period };
  ]

let decide t ~rng ~max_delay ~now ~link =
  t.in_flight.(link) <- t.in_flight.(link) + 1;
  t.clock <- now;
  match t.discipline with
  | Random_delay ->
      t.last_prio <- 0;
      now + 1 + Rng.int rng max_delay
  | Fifo_link ->
      let drawn = now + 1 + Rng.int rng max_delay in
      let last = t.fifo_last.(link) in
      let time = if last > drawn then last else drawn in
      t.fifo_last.(link) <- time;
      t.last_prio <- 0;
      time
  | Adversarial_lifo { window } ->
      t.lifo_rank <- t.lifo_rank - 1;
      t.last_prio <- t.lifo_rank;
      ((now / window) + 1) * window
  | Bursty { period } ->
      t.last_prio <- 0;
      ((now / period) + 1) * period
  [@@dynlint.zero_alloc]

let last_priority t = t.last_prio [@@dynlint.zero_alloc]

let delivered t link ~sseq =
  t.in_flight.(link) <- t.in_flight.(link) - 1;
  if t.delivered_max.(link) > sseq then true
  else begin
    t.delivered_max.(link) <- sseq;
    false
  end
  [@@dynlint.zero_alloc]

(* The number of links keyed on [v] whose FIFO bound is ahead of the
   clock. Every link keyed on [v] sits in the probe run from [v]'s home
   slot. *)
let bounds_ahead t v =
  let mask = Array.length t.link_ids - 1 in
  let i = ref (home_slot t v) and n = ref 0 in
  while t.link_ids.(!i) >= 0 do
    let id = t.link_ids.(!i) in
    if key t.link_packs.(id) = v && t.fifo_last.(id) > t.clock then incr n;
    i := (!i + 1) land mask
  done;
  !n

let on_node_deleted t ~deleted ~resolve =
  match t.discipline with
  | Fifo_link ->
      (* The deleted node never receives again (sends resolve to the
         adopter), so the FIFO bounds of its links pass to the adopter's;
         a bound not ahead of the clock cannot matter. Merging takes the
         max so a message sent to [deleted] before the deletion and one
         sent to the adopter after it still deliver in send order. Each
         fold may intern one adopter link, so enough ids are freed before
         the walk: no purge then rebuilds the table under it, and an intern
         only fills an empty slot, whose new link the walk, if it gets
         there, skips as keyed on the adopter. *)
      let ahead = bounds_ahead t deleted in
      if ahead > 0 then begin
        if t.free_n < ahead then purge t;
        let adopter = resolve deleted in
        let mask = Array.length t.link_ids - 1 in
        let i = ref (home_slot t deleted) in
        while t.link_ids.(!i) >= 0 do
          let id = t.link_ids.(!i) in
          let p = t.link_packs.(id) in
          if key p = deleted && t.fifo_last.(id) > t.clock then begin
            let remapped =
              if p land 1 = 1 then pack_up adopter else pack_direct (p lsr 32) adopter
            in
            if remapped <> p then begin
              let last = t.fifo_last.(id) in
              t.fifo_last.(id) <- 0;
              let nid = intern_packed t remapped adopter in
              if t.fifo_last.(nid) < last then t.fifo_last.(nid) <- last
            end
          end;
          i := (!i + 1) land mask
        done
      end
  | Random_delay | Adversarial_lifo _ | Bursty _ -> ()
