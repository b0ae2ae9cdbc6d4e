(* Eleven module-level values that keep mutable state, one finding each,
   then three shapes that keep none. *)

let table : (string, int) Hashtbl.t = Hashtbl.create 16
let total = ref 0

module Nested = struct
  let buf = Buffer.create 64
end

let lazy_queue : int Queue.t Lazy.t = lazy (Queue.create ())
let made = Array.make 4 0
let literal = [| 1; 2; 3 |]
let scratch = Bytes.create 8

type counter = { mutable count : int }

let counter = { count = 0 }
let ambient = Rng.create ~seed:42

type bundle = { gen : Rng.t; label : string }

(* the binding's own type says nothing about Rng; only a field does *)
let hidden = { gen = Rng.create ~seed:7; label = "smuggled" }

(* the closure's body runs per call, but the table it captures does not *)
let remember =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  fun k -> Hashtbl.replace seen k ()

(* silent: state built per call, an entry point, and a function that reads
   the generator above (its definition is the finding) *)
let make () = (Hashtbl.create 4, ref 0, Array.make 2 0, Bytes.create 1)

let () =
  let r = ref 0 in
  incr r

let draw bound = Rng.int ambient bound
