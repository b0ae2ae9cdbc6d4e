(* The benchmark's clock and its span recorder.

   Spans are recorded from the benchmark's own code, around the calls it
   makes into the library: the set-up sub-phases, the drive phase, every
   request, and each request's [next_op] and [submit] children. They live in
   preallocated int columns (sized for the workload, doubled if a run needs
   more) and are written out as JSONL once the run is over, so recording a
   span costs two clock reads and a few array stores.

   [Net.step] runs millions of times per workload; storing one span per call
   would distort the traced run's own heap, so steps are folded into a
   summary instead: a count, the inclusive and self totals, and a log2
   histogram of the inclusive step time. Steps are timed back to back, one
   clock read each: a step's interval runs from the end of the previous one
   (or the start of the drive), so the drive loop's own bookkeeping is
   charged to the step it precedes. Self time is the step minus the
   [next_op]/[submit] spans that ran nested inside it (a closed-loop client
   draws and submits its next request from the previous answer's
   continuation, which runs inside a step).

   An untraced recorder keeps the same calls and branches on [on]: the
   traced and untraced runs execute the same program and differ only in the
   clock reads. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Bytes allocated so far by this domain. [Gc.minor_words] counts the minor
   heap exactly; [Gc.allocated_bytes] and [Gc.quick_stat] only catch up at
   minor collections. Direct major allocations minus promotions is the
   major heap's own share. *)
let allocated_bytes () =
  let s = Gc.quick_stat () in
  (Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

type kind = Build | Create | Drive | Request | Next_op | Submit

let kind_index = function
  | Build -> 0
  | Create -> 1
  | Drive -> 2
  | Request -> 3
  | Next_op -> 4
  | Submit -> 5

let kind_name = function
  | Build -> "build"
  | Create -> "create"
  | Drive -> "drive"
  | Request -> "request"
  | Next_op -> "next_op"
  | Submit -> "submit"

let n_kinds = 6
let hist_buckets = 64

type t = {
  on : bool;
  mutable kind : kind array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable len : int;
  total_ns : int array;  (** per kind *)
  count : int array;
  mutable nested_ns : int;  (** running total of closed next_op/submit spans *)
  mutable mark : int;  (** end of the last step, or start of the drive *)
  mutable mark_nested : int;  (** [nested_ns] at [mark] *)
  mutable steps : int;
  mutable step_incl_ns : int;
  mutable step_self_ns : int;
  step_hist : int array;
}

let create ~on ~capacity =
  let cap = if on then max 16 capacity else 0 in
  {
    on;
    kind = Array.make cap Build;
    parent = Array.make cap (-1);
    start = Array.make cap 0;
    stop = Array.make cap 0;
    len = 0;
    total_ns = Array.make n_kinds 0;
    count = Array.make n_kinds 0;
    nested_ns = 0;
    mark = 0;
    mark_nested = 0;
    steps = 0;
    step_incl_ns = 0;
    step_self_ns = 0;
    step_hist = Array.make hist_buckets 0;
  }

let grow t =
  let cap = 2 * Array.length t.kind in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.kind <- extend t.kind Build;
  t.parent <- extend t.parent (-1);
  t.start <- extend t.start 0;
  t.stop <- extend t.stop 0

(* Open a span; the returned slot is passed to [stop] and as the [parent] of
   children. -1 when tracing is off. *)
let start t kind ~parent =
  if not t.on then -1
  else begin
    if t.len = Array.length t.kind then grow t;
    let i = t.len in
    t.len <- i + 1;
    t.kind.(i) <- kind;
    t.parent.(i) <- parent;
    let s = now () in
    t.start.(i) <- s;
    (match kind with
    | Drive ->
        t.mark <- s;
        t.mark_nested <- t.nested_ns
    | Build | Create | Request | Next_op | Submit -> ());
    i
  end

let stop t slot =
  if slot >= 0 then begin
    let e = now () in
    t.stop.(slot) <- e;
    let dur = e - t.start.(slot) in
    let kind = t.kind.(slot) in
    let k = kind_index kind in
    t.total_ns.(k) <- t.total_ns.(k) + dur;
    t.count.(k) <- t.count.(k) + 1;
    match kind with
    | Next_op | Submit -> t.nested_ns <- t.nested_ns + dur
    | Build | Create | Drive | Request -> ()
  end

let log2_bucket ns =
  let rec go b n = if n <= 1 || b = hist_buckets - 1 then b else go (b + 1) (n lsr 1) in
  go 0 ns

(* One [Net.step]. Traced, it is timed from the previous mark and its self
   time (inclusive minus the next_op/submit spans that closed inside it) is
   accumulated. *)
let step t net =
  if not t.on then Net.step net
  else begin
    let more = Net.step net in
    let e = now () in
    let incl = e - t.mark in
    t.steps <- t.steps + 1;
    t.step_incl_ns <- t.step_incl_ns + incl;
    t.step_self_ns <- t.step_self_ns + incl - (t.nested_ns - t.mark_nested);
    t.mark <- e;
    t.mark_nested <- t.nested_ns;
    let b = log2_bucket incl in
    t.step_hist.(b) <- t.step_hist.(b) + 1;
    more
  end

(* Run a set-up phase as a root span. *)
let phase t kind f =
  let s = start t kind ~parent:(-1) in
  let r = f () in
  stop t s;
  r

let total_ns t kind = t.total_ns.(kind_index kind)
let count t kind = t.count.(kind_index kind)
let step_self_ns t = t.step_self_ns

(* The stored spans as JSONL, one object per span, then one summary line for
   [Net.step]. Times are ns on the monotonic clock; [id] is the span's slot
   and [parent] the slot of the enclosing span (-1 for roots). *)
let write_jsonl t ~workload oc =
  let open Telemetry.Json in
  let line v =
    output_string oc (to_string v);
    output_char oc '\n'
  in
  for i = 0 to t.len - 1 do
    line
      (Obj
         [
           ("workload", String workload);
           ("name", String (kind_name t.kind.(i)));
           ("id", Int i);
           ("parent", Int t.parent.(i));
           ("start_ns", Int t.start.(i));
           ("end_ns", Int t.stop.(i));
         ])
  done;
  line
    (Obj
       [
         ("workload", String workload);
         ("name", String "net.step");
         ("count", Int t.steps);
         ("incl_ns", Int t.step_incl_ns);
         ("self_ns", Int t.step_self_ns);
         ("log2_hist_ns", List (Array.to_list (Array.map (fun c -> Int c) t.step_hist)));
       ])
