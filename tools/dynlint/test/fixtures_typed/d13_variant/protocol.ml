(* A variant-form universe: the renderer carries the attribute, so its
   match arms are the declared tags. *)
type suffix = Ping | Pong

let suffix_to_string = function Ping -> "ping" | Pong -> "pong"
[@@dynlint.tag_universe]
