type discipline =
  | Fifo_link
  | Random_delay
  | Adversarial_lifo of { window : int }
  | Bursty of { period : int }

type link = Direct of Dtree.node * Dtree.node | Up of Dtree.node
type link_id = int

(* Links are interned to dense ids so the per-send bookkeeping (FIFO state
   here, reorder accounting in Net) is flat array indexing with no link
   value allocated on the hot path. A link packs into one int — node ids
   stay far below 2^31 ([Dtree.ever_created] bounds them). The packed form
   is looked up in an open-addressed table of ids: a Fibonacci hash picks
   the first slot, linear probing the next, and a slot's key is read back
   through [link_packs], so no key is stored twice. Links are never
   removed, so the table needs no tombstones, and it doubles before its
   load passes 1/2. *)
let pack_direct s d = (s lsl 32) lor (d lsl 1) [@@dynlint.zero_alloc]
let pack_up v = (v lsl 1) lor 1 [@@dynlint.zero_alloc]

let unpack p =
  if p land 1 = 1 then Up (p lsr 1)
  else Direct (p lsr 32, (p lsr 1) land 0x7FFFFFFF)

(* 2^63 divided by the golden ratio, rounded to odd: the top bits of a
   packed link times it spread consecutive node ids over the table. *)
let fibonacci = 0x4F1BBCDCBFA53E0B

type t = {
  discipline : discipline;
  mutable link_ids : int array;
      (* open-addressed, power-of-two length: slot -> dense id, -1 = empty *)
  mutable link_shift : int;  (* 63 - log2 (Array.length link_ids) *)
  mutable link_packs : int array;  (* id -> packed link *)
  mutable link_n : int;
  mutable fifo_last : int array;
      (* Fifo_link: id -> last scheduled delivery; 0 = none (delivery
         times are always >= 1) *)
  by_dst : (int, int list) Hashtbl.t;
      (* Fifo_link only: destination node -> ids of links pointing at it.
         A node deletion must remap exactly the links aimed at the deleted
         node; without this index that is a scan of every link ever
         interned, and under churn the remaps themselves keep growing the
         id space — quadratic in the deletion count. *)
  mutable lifo_rank : int;  (* Adversarial_lifo: strictly decreasing priority *)
  mutable last_prio : int;
      (* priority decided for the most recent [decide]; kept out of the
         return value so [decide] returns a bare int instead of a tuple
         allocated per send *)
}

let default_window = 8
let default_period = 12

let create d =
  (match d with
  | Adversarial_lifo { window } when window < 1 ->
      invalid_arg "Scheduler.create: window must be >= 1"
  | Bursty { period } when period < 1 ->
      invalid_arg "Scheduler.create: period must be >= 1"
  | _ -> ());
  {
    discipline = d;
    link_ids = Array.make 128 (-1);
    link_shift = 63 - 7;
    link_packs = Array.make 64 0;
    link_n = 0;
    fifo_last = Array.make 64 0;
    by_dst = Hashtbl.create 64;
    lifo_rank = 0;
    last_prio = 0;
  }

let discipline t = t.discipline

let home_slot t p = (p * fibonacci) lsr t.link_shift [@@dynlint.zero_alloc]

(* The slot holding [p]'s id, or the empty slot where it belongs. The load
   stays at most 1/2, so an empty slot always ends the walk. [p] is typed
   so that [=] is an int compare, not the polymorphic [compare_val]. *)
let rec probe ids packs (p : int) i =
  let id = ids.(i) in
  if id < 0 || packs.(id) = p then i
  else probe ids packs p ((i + 1) land (Array.length ids - 1))
  [@@dynlint.zero_alloc]

let grow_ids t =
  let ids = Array.make (2 * Array.length t.link_ids) (-1) in
  t.link_ids <- ids;
  t.link_shift <- t.link_shift - 1;
  for id = 0 to t.link_n - 1 do
    let p = t.link_packs.(id) in
    ids.(probe ids t.link_packs p (home_slot t p)) <- id
  done

let intern_miss t p slot =
  let id = t.link_n in
  if id = Array.length t.link_packs then begin
    let packs = Array.make (2 * id) 0 in
    Array.blit t.link_packs 0 packs 0 id;
    t.link_packs <- packs;
    let last = Array.make (2 * id) 0 in
    Array.blit t.fifo_last 0 last 0 id;
    t.fifo_last <- last
  end;
  t.link_packs.(id) <- p;
  t.link_n <- id + 1;
  t.link_ids.(slot) <- id;
  if 2 * t.link_n > Array.length t.link_ids then grow_ids t;
  (match t.discipline with
  | Fifo_link ->
      let dst = if p land 1 = 1 then p lsr 1 else (p lsr 1) land 0x7FFFFFFF in
      let prev =
        match Hashtbl.find t.by_dst dst with
        | ids -> ids
        | exception Not_found -> []
      in
      Hashtbl.replace t.by_dst dst (id :: prev)
  | Random_delay | Adversarial_lifo _ | Bursty _ -> ());
  id

let intern_packed t p =
  let slot = probe t.link_ids t.link_packs p (home_slot t p) in
  let id = t.link_ids.(slot) in
  if id >= 0 then id
  else
    (* dynlint: allow zero-alloc — cold miss, once per distinct link *)
    intern_miss t p slot
  [@@dynlint.zero_alloc]

let intern_direct t ~src ~dst = intern_packed t (pack_direct src dst)
  [@@dynlint.zero_alloc]

let intern_up t v = intern_packed t (pack_up v) [@@dynlint.zero_alloc]
let link_count t = t.link_n [@@dynlint.zero_alloc]

let link_of_id t id =
  if id < 0 || id >= t.link_n then invalid_arg "Scheduler.link_of_id";
  unpack t.link_packs.(id)

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

let on_node_deleted t ~deleted ~resolve =
  match t.discipline with
  | Fifo_link -> (
      match Hashtbl.find t.by_dst deleted with
      | exception Not_found -> ()
      | ids ->
          (* The deleted node never receives again (sends resolve to the
             adopter), so its whole bucket retires here. Ascending id order
             keeps fresh-id assignment identical to the historical
             full-scan remap. Merging takes the max so a message sent to
             [deleted] before the deletion and one sent to the adopter
             after it still deliver in send order. *)
          Hashtbl.remove t.by_dst deleted;
          let ids = List.sort Int.compare ids in
          List.iter
            (fun id ->
              let last = t.fifo_last.(id) in
              if last > 0 then begin
                let p = t.link_packs.(id) in
                let remapped =
                  if p land 1 = 1 then pack_up (resolve deleted)
                  else pack_direct (p lsr 32) (resolve deleted)
                in
                if remapped <> p then begin
                  let nid = intern_packed t remapped in
                  if t.fifo_last.(nid) < last then t.fifo_last.(nid) <- last;
                  t.fifo_last.(id) <- 0
                end
              end)
            ids)
  | Random_delay | Adversarial_lifo _ | Bursty _ -> ()

let link_to_string = function
  | Direct (s, d) -> Printf.sprintf "%d->%d" s d
  | Up v -> Printf.sprintf "%d->up" v
