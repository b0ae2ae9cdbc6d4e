type h = { k_ping : int -> unit }

let ping t h =
  Net.send_to t ~src:0 ~dst:1 ~tag:(Protocol.tag Protocol.Ping) ~bits:8 h.k_ping
