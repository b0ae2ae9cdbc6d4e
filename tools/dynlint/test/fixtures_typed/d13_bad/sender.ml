(* Send sites: Ping is wired to a real receiver; Pong is sent into
   [ignore] (unreceivable); the last send's tag cannot be resolved to a
   universe constructor (and is not a string literal), so it is opaque. *)

type h = { k_ping : int -> unit }

let ping t h =
  Net.send_to t ~src:0 ~dst:1 ~tag:(Protocol.tag Protocol.Ping) ~bits:8 h.k_ping

let pong t =
  Net.send_to t ~src:0 ~dst:1 ~tag:(Protocol.tag Protocol.Pong) ~bits:8 ignore

let opaque t tagger k = Net.send_to t ~src:0 ~dst:1 ~tag:(tagger ()) ~bits:8 k
