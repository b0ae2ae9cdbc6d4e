type op =
  | Add_leaf of Dtree.node
  | Remove_leaf of Dtree.node
  | Add_internal of Dtree.node
  | Remove_internal of Dtree.node
  | Non_topological of Dtree.node

let pp_op ppf = function
  | Add_leaf v -> Format.fprintf ppf "add-leaf(under %d)" v
  | Remove_leaf v -> Format.fprintf ppf "remove-leaf(%d)" v
  | Add_internal v -> Format.fprintf ppf "add-internal(above %d)" v
  | Remove_internal v -> Format.fprintf ppf "remove-internal(%d)" v
  | Non_topological v -> Format.fprintf ppf "event(at %d)" v

let is_topological = function
  | Add_leaf _ | Remove_leaf _ | Add_internal _ | Remove_internal _ -> true
  | Non_topological _ -> false

let request_site t = function
  | Add_leaf v -> v
  | Remove_leaf v | Remove_internal v | Non_topological v -> v
  | Add_internal v when not (Dtree.live t v) -> v
  | Add_internal v -> (
      (* The request to add a node arrives at the node's parent-to-be. *)
      match Dtree.parent t v with Some p -> p | None -> v)

let valid_op t = function
  | Add_leaf v | Non_topological v -> Dtree.live t v
  | Remove_leaf v -> Dtree.live t v && v <> Dtree.root t && Dtree.is_leaf t v
  | Add_internal v -> Dtree.live t v && v <> Dtree.root t
  | Remove_internal v ->
      Dtree.live t v && v <> Dtree.root t && not (Dtree.is_leaf t v)

type applied =
  | Leaf_added of { parent : Dtree.node; leaf : Dtree.node }
  | Internal_added of { below : Dtree.node; fresh : Dtree.node }
  | Leaf_removed of { node : Dtree.node; parent : Dtree.node }
  | Internal_removed of {
      node : Dtree.node;
      parent : Dtree.node;
      children : Dtree.node list;
    }
  | Event_occurred of Dtree.node

let apply_info t op =
  if not (valid_op t op) then
    invalid_arg (Format.asprintf "Workload.apply: invalid %a" pp_op op);
  match op with
  | Add_leaf v -> Leaf_added { parent = v; leaf = Dtree.add_leaf t ~parent:v }
  | Remove_leaf v ->
      let parent = Option.get (Dtree.parent t v) in
      Dtree.remove_leaf t v;
      Leaf_removed { node = v; parent }
  | Add_internal v -> Internal_added { below = v; fresh = Dtree.add_internal t ~above:v }
  | Remove_internal v ->
      let parent = Option.get (Dtree.parent t v) in
      let children = Dtree.children t v in
      Dtree.remove_internal t v;
      Internal_removed { node = v; parent; children }
  | Non_topological v -> Event_occurred v

let apply t op = ignore (apply_info t op)

let touched t op =
  let with_parent v =
    match Dtree.parent t v with Some p -> [ v; p ] | None -> [ v ]
  in
  match op with
  | Add_leaf v | Non_topological v -> [ v ]
  | Remove_leaf v | Add_internal v -> with_parent v
  | Remove_internal v -> with_parent v @ Dtree.children t v

module Shape = struct
  type t =
    | Path of int
    | Star of int
    | Random of int
    | Balanced of int * int
    | Caterpillar of int

  let name = function
    | Path n -> Printf.sprintf "path-%d" n
    | Star n -> Printf.sprintf "star-%d" n
    | Random n -> Printf.sprintf "random-%d" n
    | Balanced (b, n) -> Printf.sprintf "balanced-%d-ary-%d" b n
    | Caterpillar n -> Printf.sprintf "caterpillar-%d" n

  let build rng shape =
    let t = Dtree.create () in
    (match shape with
    | Path n ->
        let tip = ref (Dtree.root t) in
        for _ = 2 to n do
          tip := Dtree.add_leaf t ~parent:!tip
        done
    | Star n ->
        for _ = 2 to n do
          ignore (Dtree.add_leaf t ~parent:(Dtree.root t))
        done
    | Random n ->
        let nodes = ref [| Dtree.root t |] in
        let count = ref 1 in
        let push v =
          if !count = Array.length !nodes then begin
            let bigger = Array.make (2 * !count) v in
            Array.blit !nodes 0 bigger 0 !count;
            nodes := bigger
          end;
          !nodes.(!count) <- v;
          incr count
        in
        for _ = 2 to n do
          let parent = !nodes.(Rng.int rng !count) in
          push (Dtree.add_leaf t ~parent)
        done
    | Balanced (b, n) ->
        if b < 1 then invalid_arg "Shape.build: arity must be >= 1";
        let queue = Queue.create () in
        Queue.add (Dtree.root t) queue;
        let remaining = ref (n - 1) in
        while !remaining > 0 do
          let v = Queue.pop queue in
          let k = min b !remaining in
          for _ = 1 to k do
            Queue.add (Dtree.add_leaf t ~parent:v) queue;
            decr remaining
          done
        done
    | Caterpillar n ->
        let tip = ref (Dtree.root t) in
        let built = ref 1 in
        while !built < n do
          if !built < n then begin
            ignore (Dtree.add_leaf t ~parent:!tip);
            incr built
          end;
          if !built < n then begin
            tip := Dtree.add_leaf t ~parent:!tip;
            incr built
          end
        done);
    t
end

module Mix = struct
  type t = {
    add_leaf : float;
    remove_leaf : float;
    add_internal : float;
    remove_internal : float;
    non_topological : float;
  }

  let grow_only =
    {
      add_leaf = 1.0;
      remove_leaf = 0.0;
      add_internal = 0.0;
      remove_internal = 0.0;
      non_topological = 0.0;
    }

  let churn =
    {
      add_leaf = 0.3;
      remove_leaf = 0.25;
      add_internal = 0.25;
      remove_internal = 0.2;
      non_topological = 0.0;
    }

  let shrink_heavy =
    {
      add_leaf = 0.15;
      remove_leaf = 0.35;
      add_internal = 0.1;
      remove_internal = 0.4;
      non_topological = 0.0;
    }

  let mixed_events =
    {
      add_leaf = 0.2;
      remove_leaf = 0.15;
      add_internal = 0.15;
      remove_internal = 0.1;
      non_topological = 0.4;
    }
end

type kind = K_add_leaf | K_remove_leaf | K_add_internal | K_remove_internal | K_event

type t = {
  rng : Rng.t;
  mix : Mix.t;
  kind_cum : float array;
      (* cumulative mix weights in declaration order, summed exactly as
         [Rng.pick_weighted]'s left fold would — the drawn kind (and the
         RNG stream) are bit-identical to the weighted-list form, without
         rebuilding a list of boxed floats on every draw *)
  deep_bias : bool;
  within : Dtree.node option;
  mutable cache : int array;
      (* stale snapshot of the live nodes in id order, one packed slot per
         node (see [id_bits]) *)
  mutable cache_len : int;  (* live prefix of [cache]; the rest is garbage *)
  mutable cache_stamp : int;  (* tree change count at last refresh *)
  mutable depth_stamp : int;
      (* [Dtree.reshape_count] when the snapshot's depths were filled, -1
         until then: the slots' depths are exact while the two agree *)
}

(* A snapshot slot holds a node id in its low [id_bits] bits and, once
   [fill_depths] has run, the node's depth above them. Ids and depths are
   both below 2^31 (a tree that large would not fit in memory), and
   packing costs no heap, where a parallel depth array would add a word
   per slot to the peak. *)
let id_bits = 31
let id_mask = (1 lsl id_bits) - 1
let slot_id s = s land id_mask
let slot_depth s = s lsr id_bits

let make ?(seed = 0xC0FFEE) ?(deep_bias = false) ?within ~mix () =
  let kind_cum =
    let w =
      [|
        mix.Mix.add_leaf;
        mix.Mix.remove_leaf;
        mix.Mix.add_internal;
        mix.Mix.remove_internal;
        mix.Mix.non_topological;
      |]
    in
    let cum = Array.make (Array.length w) 0.0 in
    let acc = ref 0.0 in
    for i = 0 to Array.length w - 1 do
      acc := !acc +. w.(i);
      cum.(i) <- !acc
    done;
    cum
  in
  if kind_cum.(Array.length kind_cum - 1) <= 0.0 then
    invalid_arg "Workload.make: mix weights sum to zero";
  {
    rng = Rng.create ~seed;
    mix;
    kind_cum;
    deep_bias;
    within;
    cache = [||];
    cache_len = 0;
    cache_stamp = -1;
    depth_stamp = -1;
  }

let in_hotspot w tree v =
  match w.within with
  | None -> true
  | Some h -> (not (Dtree.live tree h)) || Dtree.is_ancestor tree ~anc:h ~desc:v

let refresh_cache w tree =
  (* refill in place straight from the live-node iterator: no intermediate
     list, and no fresh array either — the fallback path below refreshes on
     every witness-starved request, and reallocating the snapshot each time
     was the dominant allocation of those runs. The capacity only grows.
     [iter_nodes] goes in id order, so the snapshot is sorted by id. *)
  let n = Dtree.size tree in
  if n > Array.length w.cache then
    w.cache <- Array.make (max n (2 * Array.length w.cache)) (Dtree.root tree);
  let a = w.cache in
  let i = ref 0 in
  Dtree.iter_nodes tree ~f:(fun v ->
      a.(!i) <- v;
      incr i);
  w.cache_len <- n;
  w.cache_stamp <- Dtree.change_count tree;
  w.depth_stamp <- -1

(* The index of [v]'s slot in the id-sorted snapshot, or -1. *)
let find_slot w v =
  let lo = ref 0 and hi = ref (w.cache_len - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let id = slot_id w.cache.(mid) in
    if id = v then found := mid else if id < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

(* Write every snapshot node's depth into its slot: one preorder walk of
   the tree and a binary search per node. *)
let fill_depths w tree =
  Dtree.fold_dfs_depth tree ~init:() ~f:(fun () v d ->
      let i = find_slot w v in
      if i >= 0 then w.cache.(i) <- v lor (d lsl id_bits));
  w.depth_stamp <- Dtree.reshape_count tree

let sample w = w.cache.(Rng.int w.rng w.cache_len)

(* The deeper of two sampled slots; a dead sample loses and a tie keeps
   [a]. [memo]: the slots' depths are exact, so no walk to the root. *)
let deeper tree ~memo a b =
  let ia = slot_id a and ib = slot_id b in
  if not (Dtree.live tree ib) then a
  else if not (Dtree.live tree ia) then b
  else
    let da = if memo then slot_depth a else Dtree.depth tree ia
    and db = if memo then slot_depth b else Dtree.depth tree ib in
    if db > da then b else a

let candidate w tree =
  let v = sample w in
  if w.deep_bias then begin
    (* Take the deepest of three samples: an adversary that lengthens
       walks to the root. The op stream depends on drawing v, v2, v3 in
       this order. *)
    let v2 = sample w and v3 = sample w in
    let memo = w.depth_stamp = Dtree.reshape_count tree in
    slot_id (deeper tree ~memo (deeper tree ~memo v v2) v3)
  end
  else slot_id v

let rec attempt w tree ~pred n =
  if n = 0 then None
  else
    let v = candidate w tree in
    if Dtree.live tree v && pred v then Some v else attempt w tree ~pred (n - 1)

(* Sample a live node satisfying [pred]. Samples come from a cached snapshot
   of the live set (refreshed when the tree has drifted), each candidate
   re-validated against the current tree; a linear fallback guarantees we find
   a witness when one exists. *)
let pick_target w tree ~pred =
  let stale =
    w.cache_len = 0
    || Dtree.change_count tree - w.cache_stamp > max 16 (w.cache_len / 4)
  in
  if stale then refresh_cache w tree;
  (* before the first sample, so every draw reads filled slots *)
  if w.deep_bias && w.depth_stamp < 0 then fill_depths w tree;
  match attempt w tree ~pred 40 with
  | Some v -> Some v
  | None ->
      (* Scan the fresh cache in place: when witnesses are rare every
         request lands here, and materialising the witness list was the
         dominant allocation of shrink-heavy runs. One RNG draw, exactly
         like [Rng.pick] on the witness list. *)
      refresh_cache w tree;
      let matches = ref 0 in
      for i = 0 to w.cache_len - 1 do
        if pred (slot_id w.cache.(i)) then incr matches
      done;
      if !matches = 0 then None
      else begin
        let k = ref (Rng.int w.rng !matches) in
        let found = ref (-1) in
        for i = 0 to w.cache_len - 1 do
          let v = slot_id w.cache.(i) in
          if !found < 0 && pred v then if !k = 0 then found := v else decr k
        done;
        Some !found
      end

(* dynlint: allow global-state -- read-only: only this literal writes it *)
let kinds = [| K_add_leaf; K_remove_leaf; K_add_internal; K_remove_internal; K_event |]

let kind_of_mix w =
  (* one RNG draw and a scan over the precomputed cumulative weights;
     decision-for-decision the same as [Rng.pick_weighted] on the
     five-element list (same float, same comparison order, last element as
     the default), so seeded op streams are unchanged *)
  let cum = w.kind_cum in
  let n = Array.length cum in
  let x = Rng.float w.rng *. cum.(n - 1) in
  let rec scan i = if i = n - 1 || cum.(i) > x then kinds.(i) else scan (i + 1) in
  scan 0

let op_of_kind w tree ~extra_pred kind =
  let root = Dtree.root tree in
  let p v = Dtree.live tree v && in_hotspot w tree v && extra_pred tree v in
  match kind with
  | K_add_leaf ->
      Option.map (fun v -> Add_leaf v) (pick_target w tree ~pred:p)
  | K_event ->
      Option.map (fun v -> Non_topological v) (pick_target w tree ~pred:p)
  | K_remove_leaf ->
      let pred v = v <> root && Dtree.is_leaf tree v && p v in
      Option.map (fun v -> Remove_leaf v) (pick_target w tree ~pred)
  | K_add_internal ->
      let pred v = v <> root && p v in
      Option.map (fun v -> Add_internal v) (pick_target w tree ~pred)
  | K_remove_internal ->
      let pred v = v <> root && (not (Dtree.is_leaf tree v)) && p v in
      Option.map (fun v -> Remove_internal v) (pick_target w tree ~pred)

let next_op_avoiding w tree ~forbidden =
  let extra_pred tree v =
    (* Reject if any node this op would touch is forbidden. Evaluated on the
       chosen target by reconstructing the touched set per kind. [parent_id]
       rather than [parent]: this predicate runs over the whole cached live
       set on the witness-scan fallback, and the [Some] box per candidate
       dominated witness-starved runs. *)
    (not (forbidden v))
    &&
    let p = Dtree.parent_id tree v in
    p < 0 || not (forbidden p)
  in
  let rec go attempts =
    let kind = kind_of_mix w in
    match op_of_kind w tree ~extra_pred kind with
    | Some op
      when (not (List.exists forbidden (touched tree op)))
           && not (forbidden (request_site tree op)) ->
        Some op
    | _ ->
        if attempts > 0 then go (attempts - 1)
        else if forbidden (Dtree.root tree) then None
        else Some (Add_leaf (Dtree.root tree))
  in
  go 16

(* [next_op] is [next_op_avoiding] with nothing forbidden, so that a
   concurrent driver with an empty reservation set consumes the RNG exactly
   like a sequential one — executions stay comparable across the two. *)
let next_op w tree =
  match next_op_avoiding w tree ~forbidden:(fun _ -> false) with
  | Some op -> op
  | None -> Add_leaf (Dtree.root tree)

module Trace = struct
  type trace = { build_seed : int; shape : Shape.t; ops : op list }

  let capture ?(seed = 0xACE) ?(deep_bias = false) ~shape ~mix ~steps () =
    let build_seed = seed in
    let rng = Rng.create ~seed:build_seed in
    let tree = Shape.build rng shape in
    let w = make ~seed:(seed + 1) ~deep_bias ~mix () in
    let ops = ref [] in
    for _ = 1 to steps do
      let op = next_op w tree in
      ops := op :: !ops;
      apply tree op
    done;
    { build_seed; shape; ops = List.rev !ops }

  let replay t ~f =
    let rng = Rng.create ~seed:t.build_seed in
    let tree = Shape.build rng t.shape in
    List.iter (fun op -> f tree op) t.ops;
    tree

  let shape_to_string = function
    | Shape.Path n -> Printf.sprintf "path %d" n
    | Shape.Star n -> Printf.sprintf "star %d" n
    | Shape.Random n -> Printf.sprintf "random %d" n
    | Shape.Balanced (b, n) -> Printf.sprintf "balanced %d %d" b n
    | Shape.Caterpillar n -> Printf.sprintf "caterpillar %d" n

  (* The parsers below raise [Failure] on anything malformed, a bad integer
     included; [of_string] turns that into a message naming the line. *)
  let words s = String.split_on_char ' ' (String.trim s)

  let shape_of_string s =
    match words s with
    | [ "path"; n ] -> Shape.Path (int_of_string n)
    | [ "star"; n ] -> Shape.Star (int_of_string n)
    | [ "random"; n ] -> Shape.Random (int_of_string n)
    | [ "balanced"; b; n ] ->
        let b = int_of_string b in
        if b < 1 then failwith s;
        Shape.Balanced (b, int_of_string n)
    | [ "caterpillar"; n ] -> Shape.Caterpillar (int_of_string n)
    | _ -> failwith s

  let op_to_string = function
    | Add_leaf v -> Printf.sprintf "add-leaf %d" v
    | Remove_leaf v -> Printf.sprintf "remove-leaf %d" v
    | Add_internal v -> Printf.sprintf "add-internal %d" v
    | Remove_internal v -> Printf.sprintf "remove-internal %d" v
    | Non_topological v -> Printf.sprintf "event %d" v

  let op_of_string s =
    match words s with
    | [ "add-leaf"; v ] -> Add_leaf (int_of_string v)
    | [ "remove-leaf"; v ] -> Remove_leaf (int_of_string v)
    | [ "add-internal"; v ] -> Add_internal (int_of_string v)
    | [ "remove-internal"; v ] -> Remove_internal (int_of_string v)
    | [ "event"; v ] -> Non_topological (int_of_string v)
    | _ -> failwith s

  let to_string t =
    let buf = Buffer.create 256 in
    Buffer.add_string buf "dynnet-trace 1\n";
    Buffer.add_string buf (Printf.sprintf "seed %d\n" t.build_seed);
    Buffer.add_string buf (Printf.sprintf "shape %s\n" (shape_to_string t.shape));
    List.iter (fun op -> Buffer.add_string buf (op_to_string op ^ "\n")) t.ops;
    Buffer.contents buf

  let of_string s =
    let parse n what f line =
      try f line
      with Failure _ -> failwith (Printf.sprintf "Trace: line %d: bad %s: %S" n what line)
    in
    match String.split_on_char '\n' s with
    | magic :: seed_line :: shape_line :: rest ->
        parse 1 "magic"
          (fun l -> if String.trim l <> "dynnet-trace 1" then failwith l)
          magic;
        let build_seed =
          parse 2 "seed line"
            (fun l -> match words l with [ "seed"; n ] -> int_of_string n | _ -> failwith l)
            seed_line
        in
        let shape =
          parse 3 "shape line"
            (fun l ->
              match String.index_opt l ' ' with
              | Some i when String.sub l 0 i = "shape" ->
                  shape_of_string (String.sub l (i + 1) (String.length l - i - 1))
              | _ -> failwith l)
            shape_line
        in
        let ops =
          List.mapi
            (fun i line ->
              if String.trim line = "" then None
              else Some (parse (i + 4) "op line" op_of_string line))
            rest
        in
        { build_seed; shape; ops = List.filter_map Fun.id ops }
    | _ -> failwith "Trace: truncated"

  let save t path =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        output_string oc (to_string t))

  let load path =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic) |> of_string)
end
