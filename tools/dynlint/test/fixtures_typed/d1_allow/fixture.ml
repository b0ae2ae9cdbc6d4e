(* The eleven shapes of d1_bad, each allow-annotated on its line or the
   line before; none of the comments is stale. *)

let table : (string, int) Hashtbl.t = Hashtbl.create 16 (* dynlint: allow global-state -- fixture *)

(* dynlint: allow global-state -- annotation on the preceding line *)
let total = ref 0

module Nested = struct
  let buf = Buffer.create 64 (* dynlint: allow global-state -- fixture *)
end

(* dynlint: allow global-state -- fixture *)
let lazy_queue : int Queue.t Lazy.t = lazy (Queue.create ())
let made = Array.make 4 0 (* dynlint: allow global-state -- fixture *)
let literal = [| 1; 2; 3 |] (* dynlint: allow global-state -- fixture *)
let scratch = Bytes.create 8 (* dynlint: allow global-state -- fixture *)

type counter = { mutable count : int }

let counter = { count = 0 } (* dynlint: allow global-state -- fixture *)
let ambient = Rng.create ~seed:42 (* dynlint: allow global-state -- fixture *)

type bundle = { gen : Rng.t; label : string }

(* dynlint: allow global-state -- fixture *)
let hidden = { gen = Rng.create ~seed:7; label = "smuggled" }

let remember =
  (* dynlint: allow global-state -- fixture: the finding is at the capture *)
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  fun k -> Hashtbl.replace seen k ()
