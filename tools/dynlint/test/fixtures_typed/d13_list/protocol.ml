(* A list-form universe: bare wire strings with no variant behind them.
   D13 has no constructors to follow, so the declaration is a finding. *)
let tag_suffixes = [ "ping"; "dead-arm" ] [@@dynlint.tag_universe]
let tag suffix = "px-" ^ suffix
