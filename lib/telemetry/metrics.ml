type counter = { mutable c : int }
type gauge = { mutable g : int }

(* One bucket for v <= 0, then one per power-of-two upper bound 2^0 .. 2^62;
   2^62 > max_int = 2^62 - 1, so every int falls in some bucket. *)
let bucket_count = 64

type histogram = {
  buckets : int array;  (* length [bucket_count], non-cumulative *)
  mutable count : int;
  mutable sum : int;
}

type instrument = C of counter | G of gauge | H of histogram

type t = { table : (string * (string * string) list, instrument) Hashtbl.t }

let create () = { table = Hashtbl.create 32 }

let compare_label (k1, v1) (k2, v2) =
  match String.compare k1 k2 with 0 -> String.compare v1 v2 | c -> c

let rec compare_labels a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys -> (
      match compare_label x y with 0 -> compare_labels xs ys | c -> c)

let normalize_labels labels = List.sort compare_label labels

let register t ~labels name make cast =
  let key = (name, normalize_labels labels) in
  match Hashtbl.find_opt t.table key with
  | Some i -> cast i
  | None ->
      let i = make () in
      Hashtbl.replace t.table key i;
      cast i

let counter t ?(labels = []) name =
  register t ~labels name
    (fun () -> C { c = 0 })
    (function C c -> c | _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter"))

let gauge t ?(labels = []) name =
  register t ~labels name
    (fun () -> G { g = 0 })
    (function G g -> g | _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge"))

let histogram t ?(labels = []) name =
  register t ~labels name
    (fun () -> H { buckets = Array.make bucket_count 0; count = 0; sum = 0 })
    (function
      | H h -> h
      | _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram"))

let inc c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let set g v = g.g <- v
let counter_value c = c.c
let gauge_value g = g.g

(* floor log2 without allocation; v >= 1 *)
let ilog2 v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let bucket_of v =
  if v <= 0 then 0
  else
    let f = ilog2 v in
    let ceil = if 1 lsl f = v then f else f + 1 in
    ceil + 1

let bucket_upper k = if k = 0 then 0 else 1 lsl (k - 1)

let observe h v =
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum + v

let merge ~into src =
  Hashtbl.iter
    (fun (name, labels) i ->
      match i with
      | C c -> add (counter into ~labels name) c.c
      | G g ->
          let d = gauge into ~labels name in
          if g.g > d.g then d.g <- g.g
      | H h ->
          let d = histogram into ~labels name in
          Array.iteri (fun k n -> d.buckets.(k) <- d.buckets.(k) + n) h.buckets;
          d.count <- d.count + h.count;
          d.sum <- d.sum + h.sum)
    src.table

(* ------------------------------------------------------------------ *)
(* snapshots                                                           *)

type value =
  | Counter of int
  | Gauge of int
  | Histogram of { count : int; sum : int; buckets : (int * int) list }

type entry = { name : string; labels : (string * string) list; value : value }

let snapshot t =
  Hashtbl.fold
    (fun (name, labels) i acc ->
      let value =
        match i with
        | C c -> Counter c.c
        | G g -> Gauge g.g
        | H h ->
            let buckets = ref [] in
            for k = bucket_count - 1 downto 0 do
              if h.buckets.(k) > 0 then
                buckets := (bucket_upper k, h.buckets.(k)) :: !buckets
            done;
            Histogram { count = h.count; sum = h.sum; buckets = !buckets }
      in
      { name; labels; value } :: acc)
    t.table []
  |> List.sort (fun a b ->
         match String.compare a.name b.name with
         | 0 -> compare_labels a.labels b.labels
         | c -> c)
