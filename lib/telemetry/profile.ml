(* Phase-scoped GC/allocation probes. A profile is a named-phase table;
   [run] brackets a stretch of work with [Gc.quick_stat]/{!allocated_bytes}
   readings and folds the deltas into the phase. All counters are read on the
   calling domain, so under [Pool]-style parallelism each task profiles into
   its own instance and the instances are {!merge}d afterwards — the same
   contract as [Metrics]. Wall time only exists when a clock was injected at
   creation (the library takes no ambient time). *)

type entry = {
  name : string;
  count : int;
  alloc_bytes : int;
  minor : int;
  major : int;
  wall_s : float;
}

type phase = {
  mutable p_count : int;
  mutable p_alloc : float;
  mutable p_minor : int;
  mutable p_major : int;
  mutable p_wall : float;
}

type t = {
  clock : (unit -> float) option;
  tbl : (string, phase) Hashtbl.t;
  mutable rev_order : string list;  (* first-recorded order, reversed *)
}

let create ?clock () = { clock; tbl = Hashtbl.create 8; rev_order = [] }

let phase_of t name =
  match Hashtbl.find_opt t.tbl name with
  | Some p -> p
  | None ->
      let p =
        {
          p_count = 0;
          p_alloc = 0.0;
          p_minor = 0;
          p_major = 0;
          p_wall = 0.0;
        }
      in
      Hashtbl.add t.tbl name p;
      t.rev_order <- name :: t.rev_order;
      p

let now t = match t.clock with Some c -> c () | None -> 0.0

(* [Gc.minor_words] reads the minor heap's allocation pointer, so it is
   exact at any instant; [Gc.allocated_bytes] and [Gc.quick_stat] only
   account the minor heap at collections. Direct major allocations are the
   major heap's words minus those promoted into it, read from
   [Gc.counters], which (unlike [Gc.quick_stat]) counts this domain only. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

let run t ~name f =
  let p = phase_of t name in
  let w0 = now t in
  let s0 = Gc.quick_stat () in
  let a0 = allocated_bytes () in
  Fun.protect
    ~finally:(fun () ->
      let a1 = allocated_bytes () in
      let s1 = Gc.quick_stat () in
      p.p_count <- p.p_count + 1;
      p.p_alloc <- p.p_alloc +. (a1 -. a0);
      p.p_minor <- p.p_minor + (s1.Gc.minor_collections - s0.Gc.minor_collections);
      p.p_major <- p.p_major + (s1.Gc.major_collections - s0.Gc.major_collections);
      p.p_wall <- p.p_wall +. (now t -. w0))
    f

let entry_of t name =
  let p = Hashtbl.find t.tbl name in
  {
    name;
    count = p.p_count;
    alloc_bytes = int_of_float p.p_alloc;
    minor = p.p_minor;
    major = p.p_major;
    wall_s = p.p_wall;
  }

let names t = List.rev t.rev_order
let entries t = List.map (entry_of t) (names t)

let merge ~into t =
  List.iter
    (fun name ->
      let src = Hashtbl.find t.tbl name in
      let dst = phase_of into name in
      dst.p_count <- dst.p_count + src.p_count;
      dst.p_alloc <- dst.p_alloc +. src.p_alloc;
      dst.p_minor <- dst.p_minor + src.p_minor;
      dst.p_major <- dst.p_major + src.p_major;
      dst.p_wall <- dst.p_wall +. src.p_wall)
    (names t)

let entry_json e =
  Json.Obj
    [
      ("count", Json.Int e.count);
      ("alloc_bytes", Json.Int e.alloc_bytes);
      ("minor", Json.Int e.minor);
      ("major", Json.Int e.major);
      ("wall_s", Json.Float e.wall_s);
    ]

let to_json t = Json.Obj (List.map (fun e -> (e.name, entry_json e)) (entries t))

let emit t sink ~time =
  List.iter
    (fun e ->
      Sink.event sink ~time
        (Event.Phase
           {
             name = e.name;
             count = e.count;
             alloc_bytes = e.alloc_bytes;
             minor = e.minor;
             major = e.major;
             wall_ns = int_of_float (e.wall_s *. 1e9);
           }))
    (entries t)
