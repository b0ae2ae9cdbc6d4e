type h = { k_ping : int -> unit; k_pong : int -> unit }

let ping t h =
  Net.send_to t ~src:0 ~dst:1 ~tag:(Protocol.tag Protocol.Ping) ~bits:8 h.k_ping

let pong t h =
  Net.send_to t ~src:0 ~dst:1 ~tag:(Protocol.tag Protocol.Pong) ~bits:8 h.k_pong
