(* Stand-in for the real seeded Rng: the type name is what D1 keys on. *)
type t = { mutable state : int }

let create ~seed = { state = seed }

let int t bound =
  t.state <- (t.state * 25214903917) + 11;
  abs t.state mod (max 1 bound)
