(* A string tag names no universe constructor, whether or not the list
   spells it: both sends are unresolved. *)
let ping net dst = Net.send_to net ~src:0 ~dst ~tag:(Protocol.tag "ping") ~bits:8 ignore

(* "rogue" is spelled nowhere in the universe. *)
let rogue net dst = Net.send_to net ~src:0 ~dst ~tag:(Protocol.tag "rogue") ~bits:8 ignore
